(* The benchmark's client: verifies everything the daemon hands out
   through [Verifier_client], checks it against the host-side reference
   (the output oracle), times each verification from outside, and
   counts every failed operation against the number attempted.

   Shared by the exporter and the query thread of [live], so all state
   sits behind one mutex. *)

module D = Zkflow_hash.Digest32
module Board = Zkflow_commitlog.Board
module Receipt = Zkflow_zkproof.Receipt
module Record = Zkflow_netflow.Record
module Flowkey = Zkflow_netflow.Flowkey
open Zkflow_core

type t = {
  board : Board.t;
  refs : Clog.t array;  (** reference CLog after each epoch *)
  m : Mutex.t;
  verified : (string, Clog.t) Hashtbl.t;  (** verified root (hex) -> reference CLog *)
  mutable head : D.t;  (** last verified root of the round chain *)
  mutable next_round : int;
  mutable receipts : (int * Receipt.t) list;  (** verified rounds, newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable round_ms : float list;
  mutable query_ms : float list;
  mutable flows_ms : float list;
}

let now = Unix.gettimeofday

let create ~board ~refs =
  {
    board;
    refs;
    m = Mutex.create ();
    verified = Hashtbl.create 64;
    head = Clog.empty_root;
    next_round = 0;
    receipts = [];
    attempted = 0;
    failed = 0;
    round_ms = [];
    query_ms = [];
    flows_ms = [];
  }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let attempt t n = locked t (fun () -> t.attempted <- t.attempted + n)

let fail t msg =
  locked t (fun () ->
      t.failed <- t.failed + 1;
      if t.failed <= 5 then prerr_endline ("perfbench: failed operation: " ^ msg))

let attempted t = locked t (fun () -> t.attempted)
let failed t = locked t (fun () -> t.failed)
let round_ms t = locked t (fun () -> t.round_ms)
let query_ms t = locked t (fun () -> t.query_ms)
let flows_ms t = locked t (fun () -> t.flows_ms)
let chain t = locked t (fun () -> List.rev t.receipts)

let timed f =
  let t0 = Zkflow_obs.Span.start () in
  let c0 = now () in
  let r = f () in
  (r, (now () -. c0) *. 1000., t0)

(* Each accepted receipt is verified this many more times, after the
   clock of its operation stopped; the best of all tries is its
   verification time. With the pool's second domain in the process,
   single samples of a few ms split into two modes almost 2x apart
   (likely stop-the-world minor collections reaching the parked
   domain), and their median flipped between modes from run to run. *)
let reverify = 2

(* Best of [1 + reverify] timed runs of [verify], the first given. *)
let best_of first verify =
  List.fold_left
    (fun best () ->
      let _, ms, _ = timed verify in
      Float.min best ms)
    first (List.init reverify (fun _ -> ()))

(* Verify the next round of the chain, which must cover [epoch], and
   check its new root against the reference. Returns the time the
   client finished and the verification time in ms, or [None] after counting a failure. *)
let verify_round t ~epoch (receipt : Receipt.t) =
  let prev, index = locked t (fun () -> (t.head, t.next_round)) in
  let r, ms, t0 =
    timed (fun () ->
        Verifier_client.verify_round ~expected_prev:prev ~round:index ~board:t.board
          ~epoch receipt)
  in
  Zkflow_obs.Span.finish "bench.verify_round" t0;
  let done_at = now () in
  let expected = t.refs.(epoch) in
  match r with
  | Error e ->
    fail t (Printf.sprintf "round %d (epoch %d) rejected: %s" index epoch e);
    None
  | Ok j when not (D.equal j.Guests.new_root (Clog.root expected)) ->
    fail t (Printf.sprintf "round %d (epoch %d): root differs from reference" index epoch);
    None
  | Ok j ->
    let best =
      best_of ms (fun () ->
          Verifier_client.verify_round ~expected_prev:prev ~round:index ~board:t.board ~epoch
            receipt)
    in
    locked t (fun () ->
        t.head <- j.Guests.new_root;
        t.next_round <- index + 1;
        t.receipts <- (epoch, receipt) :: t.receipts;
        t.round_ms <- best :: t.round_ms;
        Hashtbl.replace t.verified (D.to_hex j.Guests.new_root) expected);
    Some (done_at, ms)

(* The reference CLog behind [root], once the client has verified a
   round ending there; waits up to [timeout] seconds for the round
   client (another thread in [live]) to get there. *)
let await_root t ?(timeout = 60.) root =
  let deadline = now () +. timeout in
  let key = D.to_hex root in
  locked t (fun () ->
      let rec go () =
        match Hashtbl.find_opt t.verified key with
        | Some c -> Some c
        | None when now () >= deadline -> None
        | None ->
          Mutex.unlock t.m;
          Thread.delay 0.002;
          Mutex.lock t.m;
          go ()
      in
      go ())

let metric_value (m : Record.metrics) = function
  | Guests.Packets -> m.Record.packets
  | Guests.Bytes -> m.Record.bytes
  | Guests.Hops -> m.Record.hop_count
  | Guests.Losses -> m.Record.losses

(* A proof-backed answer: the receipt must verify against a root the
   client has verified, answer exactly the question asked, and equal
   [Query.reference] on that root's CLog. *)
let check_answer t (params : Guests.query_params) (row : Query.result_row) =
  let root = row.Query.journal.Guests.root in
  match await_root t root with
  | None ->
    fail t "answer names a root the client never verified";
    None
  | Some clog -> (
    let r, ms, t0 =
      timed (fun () -> Verifier_client.verify_query ~expected_root:root row.Query.receipt)
    in
    Zkflow_obs.Span.finish "bench.verify_query" t0;
    match r with
    | Error e ->
      fail t ("query receipt rejected: " ^ e);
      None
    | Ok j when not (Guests.params_equal j.Guests.params params) ->
      fail t "answer is for a different query";
      None
    | Ok j when Query.reference clog params <> (j.Guests.result, j.Guests.matches) ->
      fail t "answer differs from the reference";
      None
    | Ok _ ->
      let done_at = now () in
      let best =
        best_of ms (fun () -> Verifier_client.verify_query ~expected_root:root row.Query.receipt)
      in
      locked t (fun () -> t.query_ms <- best :: t.query_ms);
      Some (done_at, ms))

(* A batched readout: the multiproof must authenticate exactly the
   requested flows against a verified root, with reference values. *)
let check_flows t ~metric (keys : Flowkey.t list) (fr : Query.flows_result) =
  match await_root t fr.Query.root with
  | None ->
    fail t "readout names a root the client never verified";
    None
  | Some clog -> (
    let r, ms, t0 =
      timed (fun () -> Verifier_client.verify_flows ~expected_root:fr.Query.root fr)
    in
    Zkflow_obs.Span.finish "bench.verify_flows" t0;
    let expected =
      List.filter_map
        (fun k ->
          Option.map
            (fun (_, (e : Clog.entry)) -> (k, metric_value e.Clog.metrics metric))
            (Clog.find clog k))
        keys
      |> List.sort (fun (a, _) (b, _) -> Flowkey.compare a b)
    in
    match r with
    | Error e ->
      fail t ("readout rejected: " ^ e);
      None
    | Ok rows ->
      let got =
        List.map (fun (fr : Query.flow_row) -> (fr.Query.entry.Clog.key, fr.Query.value)) rows
        |> List.sort (fun (a, _) (b, _) -> Flowkey.compare a b)
      in
      if fr.Query.metric <> metric
         || List.length expected <> List.length keys
         || not (List.equal (fun (a, x) (b, y) -> Flowkey.equal a b && x = y) got expected)
      then begin
        fail t "readout differs from the reference";
        None
      end
      else begin
        locked t (fun () -> t.flows_ms <- ms :: t.flows_ms);
        Some (now (), ms)
      end)

(* Re-verify the whole chain from the empty root, as a client joining
   late would; returns the wall time in ms. *)
let verify_chain t =
  let rounds = chain t in
  let t0 = now () in
  (match Verifier_client.verify_chain ~board:t.board rounds with
  | Ok c when D.equal c.Verifier_client.final_root (locked t (fun () -> t.head)) -> ()
  | Ok _ -> fail t "verify_chain ends at a different root"
  | Error e -> fail t ("verify_chain rejected the history: " ^ e));
  (now () -. t0) *. 1000.
