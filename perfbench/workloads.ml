(* The three workloads, each driving one resident daemon in-process
   through its public API while [Client] plays the remote verifier.

   Every phase is timed from outside. A pass accumulates raw samples
   into an [acc]; [Perfbench] turns them into metrics. *)

module Db = Zkflow_store.Db
module Board = Zkflow_commitlog.Board
module Span = Zkflow_obs.Span
open Zkflow_core

let now = Unix.gettimeofday

(* The spot-check count [zkflow serve] proves with by default. *)
let proof_params = Zkflow_zkproof.Params.make ~queries:8

(* ---- checkpoint files, kept inside the working directory ---- *)

let state_dir = "perfbench-state"
let wal_seq = ref 0

let remove_quietly p = try Sys.remove p with Sys_error _ -> ()

let fresh_wal () =
  if not (Sys.file_exists state_dir) then Sys.mkdir state_dir 0o755;
  incr wal_seq;
  let p = Printf.sprintf "%s/%d-%d.wal" state_dir (Unix.getpid ()) !wal_seq in
  remove_quietly p;
  p

(* ---- one daemon plus its client ---- *)

type inst = { d : Daemon.t; client : Client.t; wal : string }

(* Attempted / failed operations of retired instances. *)
let retired = ref (0, 0)

let start refs =
  let db = Db.create ~epoch:Zkflow_store.Epoch.default () in
  let board = Board.create () in
  let wal = fresh_wal () in
  match Daemon.create ~proof_params ~db ~board ~ckpt_path:wal () with
  | Ok (d, _) -> { d; client = Client.create ~board ~refs; wal }
  | Error e -> failwith ("daemon create: " ^ e)

let retire i =
  Daemon.stop i.d;
  List.iter remove_quietly [ i.wal; i.wal ^ ".tmp" ];
  let a, f = !retired in
  retired := (a + Client.attempted i.client, f + Client.failed i.client)

let service i = Daemon.service i.d

(* The round that covers [epoch], with its summary. *)
let round_for i ~epoch =
  let svc = service i in
  let rec find = function
    | (c : Prover_service.coverage) :: cs, r :: rs, s :: ss ->
      if c.Prover_service.epoch = epoch && not c.Prover_service.heal then Some (r, s)
      else find (cs, rs, ss)
    | _ -> None
  in
  find (Prover_service.coverage svc, Prover_service.rounds svc, Prover_service.summaries svc)

let rounds_done i = List.length (Prover_service.rounds (service i))

(* ---- samples of one pass ---- *)

type acc = {
  lock : Mutex.t;
  mutable fresh : float list;  (** per window: due/submit -> covering round verified, s *)
  mutable proven : float list;  (** per memo-miss answer: send/due -> verified, s *)
  mutable submit_ms : float list;
  mutable window_wait : float list;  (** freshness not spent proving or verifying, s *)
  mutable query_wait : float list;  (** answer latency not spent proving or verifying, s *)
  mutable late_ms : float list;  (** open-loop scheduler lateness *)
  mutable records : int;
  mutable windows : int;
  mutable answers : int;
  mutable rows : Query.result_row list;  (** proven answers, newest first *)
  mutable flows : (float * int) list;  (** readout call ms, multiproof bytes; newest first *)
  mutable units : int;  (** epochs (backfill, live) or query cycles (audit) completed *)
  mutable wall : float;
}

let acc () =
  {
    lock = Mutex.create ();
    fresh = [];
    proven = [];
    submit_ms = [];
    window_wait = [];
    query_wait = [];
    late_ms = [];
    records = 0;
    windows = 0;
    answers = 0;
    rows = [];
    flows = [];
    units = 0;
    wall = 0.;
  }

let with_acc a f =
  Mutex.lock a.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock a.lock) (fun () -> f a)

(* ---- daemon calls, each timed and spanned from outside ---- *)

(* Submit every window of an epoch; returns each window's submit time. *)
let submit_epoch ~wait i a (e : Inputs.epoch_input) =
  List.map
    (fun (router_id, w) ->
      let t0 = Span.start () in
      let c0 = now () in
      let r =
        (if wait then Daemon.submit_wait else Daemon.submit)
          i.d ~router_id ~epoch:e.Inputs.epoch w
      in
      let c1 = now () in
      Span.finish "bench.submit" t0;
      Client.attempt i.client 1;
      (match r with
      | Daemon.Accepted -> ()
      | Daemon.Shed -> Client.fail i.client "window shed"
      | Daemon.Duplicate -> Client.fail i.client "window rejected as duplicate"
      | Daemon.Closed -> Client.fail i.client "intake closed");
      with_acc a (fun a -> a.submit_ms <- ((c1 -. c0) *. 1000.) :: a.submit_ms);
      c0)
    e.Inputs.windows

let settle i =
  let t0 = Span.start () in
  (match Daemon.await_idle i.d with
  | `Idle -> ()
  | `Crashed site -> Client.fail i.client ("daemon crashed at " ^ site));
  Span.finish "bench.round_wait" t0

(* Verify the round covering [e]; credit its windows, whose clocks
   started at [starts]. *)
let verify_epoch i a (e : Inputs.epoch_input) starts =
  match round_for i ~epoch:e.Inputs.epoch with
  | None -> Client.fail i.client (Printf.sprintf "no round covers epoch %d" e.Inputs.epoch)
  | Some ((r : Aggregate.round), (s : Prover_service.round_summary)) -> (
    match Client.verify_round i.client ~epoch:e.Inputs.epoch r.Aggregate.receipt with
    | None -> ()
    | Some (done_at, vms) ->
      let busy = s.Prover_service.execute_s +. s.Prover_service.prove_s +. (vms /. 1000.) in
      with_acc a (fun a ->
          List.iter
            (fun t0 ->
              a.fresh <- (done_at -. t0) :: a.fresh;
              a.window_wait <- (done_at -. t0 -. busy) :: a.window_wait)
            starts;
          a.records <- a.records + e.Inputs.records;
          a.windows <- a.windows + List.length starts;
          a.units <- a.units + 1))

(* One proof-backed query whose clock started at [t0]. *)
let ask i a ~t0 params =
  Client.attempt i.client 1;
  let s = Span.start () in
  let r = Daemon.query i.d params in
  Span.finish "bench.query" s;
  match r with
  | Error e -> Client.fail i.client ("query failed: " ^ e)
  | Ok (row, hit) -> (
    match Client.check_answer i.client params row with
    | None -> ()
    | Some (done_at, vms) ->
      with_acc a (fun a ->
          a.answers <- a.answers + 1;
          if not hit then begin
            a.proven <- (done_at -. t0) :: a.proven;
            a.query_wait <-
              (done_at -. t0 -. row.Query.execute_s -. row.Query.prove_s -. (vms /. 1000.))
              :: a.query_wait;
            a.rows <- row :: a.rows
          end))

let readout i a (metric, keys) =
  Client.attempt i.client 1;
  let s = Span.start () in
  let c0 = now () in
  let r = Daemon.query_flows i.d ~metric keys in
  let ms = (now () -. c0) *. 1000. in
  Span.finish "bench.query_flows" s;
  match r with
  | Error e -> Client.fail i.client ("readout failed: " ^ e)
  | Ok (fr, _) -> (
    match Client.check_flows i.client ~metric keys fr with
    | None -> ()
    | Some _ ->
      let bytes = Bytes.length (Zkflow_merkle.Multiproof.encode fr.Query.proof) in
      with_acc a (fun a ->
          a.answers <- a.answers + 1;
          a.flows <- (ms, bytes) :: a.flows))

(* ---- set-up: Daemon.create to the first client-verified root ---- *)

let found refs (hist : Inputs.epoch_input array) =
  let t0 = now () in
  let i = start refs in
  let a = acc () in
  let starts = submit_epoch ~wait:true i a hist.(0) in
  Daemon.advance i.d ~epoch:0;
  settle i;
  verify_epoch i a hist.(0) starts;
  (i, now () -. t0)

(* [reps] set-ups on fresh checkpoint paths; the last daemon is kept
   for the timed phase. *)
let setup ~reps refs hist =
  let rec go n samples =
    let i, s = found refs hist in
    if n <= 1 then (i, List.rev (s :: samples))
    else begin
      retire i;
      go (n - 1) (s :: samples)
    end
  in
  go reps []

(* ---- backfill: closed loop, one epoch at a time ---- *)

let backfill ~continue i a (hist : Inputs.epoch_input array) =
  let t_start = now () in
  let e = ref 1 in
  while !e < Array.length hist && continue ~units:(!e - 1) ~elapsed:(now () -. t_start) do
    let ep = hist.(!e) in
    let starts = submit_epoch ~wait:true i a ep in
    Daemon.advance i.d ~epoch:ep.Inputs.epoch;
    settle i;
    verify_epoch i a ep starts;
    incr e
  done;
  a.wall <- now () -. t_start

(* ---- live: open loop, windows and queries on fixed schedules ---- *)

let sleep_until t =
  let d = t -. now () in
  if d > 0. then Thread.delay d

let live ~period ~epochs i a (hist : Inputs.epoch_input array) (queries : Guests.query_params array) =
  let n = min epochs (Array.length hist - 1) in
  let t_start = now () in
  let due e = t_start +. (float_of_int (e - 1) *. period) in
  let exporter () =
    let next = ref 1 and verified = ref 1 in
    let deadline = due n +. 120. in
    while !verified <= n && now () < deadline do
      let t = now () in
      if !next <= n && t >= due !next then begin
        let ep = hist.(!next) in
        with_acc a (fun a -> a.late_ms <- ((t -. due !next) *. 1000.) :: a.late_ms);
        ignore (submit_epoch ~wait:false i a ep);
        Daemon.advance i.d ~epoch:ep.Inputs.epoch;
        incr next
      end
      else if !verified < !next && rounds_done i > !verified then begin
        let ep = hist.(!verified) in
        verify_epoch i a ep (List.map (fun _ -> due !verified) ep.Inputs.windows);
        incr verified
      end
      else Thread.delay (if !next <= n then Float.min 0.002 (Float.max 0. (due !next -. t)) else 0.002)
    done;
    if !verified <= n then
      Client.fail i.client (Printf.sprintf "%d epoch(s) never verified" (n - !verified + 1))
  in
  (* Two queries per window period: a fresh distinct query half a
     period after the window was due, when the round usually has
     landed, then a repeat of it (a memo hit unless a new root landed
     in between). *)
  let m = 2 * n in
  let querier () =
    for j = 0 to m - 1 do
      let d =
        t_start +. (float_of_int (j / 2) *. period) +. (if j mod 2 = 0 then 0.5 else 0.8) *. period
      in
      sleep_until d;
      with_acc a (fun a -> a.late_ms <- ((now () -. d) *. 1000.) :: a.late_ms);
      ask i a ~t0:d queries.((j / 2) mod Array.length queries)
    done
  in
  let tq = Thread.create querier () in
  exporter ();
  Thread.join tq;
  a.wall <- now () -. t_start

(* ---- audit: closed loop, one client, against a fixed root ---- *)

type op = Proven | Repeat | Readout

(* Five distinct proof-backed queries, one repeat (a memo hit) and two
   batched readouts per cycle. *)
let cycle = [ Proven; Proven; Readout; Proven; Repeat; Proven; Readout; Proven ]

let audit ~continue i a (queries : Guests.query_params array) flow_sets =
  let t_start = now () in
  let qi = ref 0 and fi = ref 0 and c = ref 0 in
  let nq = Array.length queries and nf = Array.length flow_sets in
  while continue ~units:!c ~elapsed:(now () -. t_start) do
    List.iter
      (fun op ->
        match op with
        | Proven ->
          ask i a ~t0:(now ()) queries.(!qi mod nq);
          incr qi
        | Repeat -> ask i a ~t0:(now ()) queries.((!qi + nq - 1) mod nq)
        | Readout ->
          readout i a flow_sets.(!fi mod nf);
          incr fi)
      cycle;
    incr c
  done;
  a.units <- !c;
  a.wall <- now () -. t_start
