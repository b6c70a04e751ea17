(* The repository benchmark. One invocation runs one workload:

     perfbench --workload backfill|live|audit --seed N --seconds S --trace 0|1
     perfbench --selftest

   With --trace 0 it times [setup_reps] cold set-ups, each in a fresh
   child process (perfbench --cold-setup WORKLOAD SEED), warms its own
   daemon up, runs the timed phase with telemetry off, and prints the
   end-to-end metrics.
   With --trace 1 it does the same untraced run, then repeats a fixed
   amount of the workload with [Zkflow_obs.Obs] enabled and prints the
   per-layer metrics. The last line of stdout is always the result
   object {correct, attempted, failed, metrics}; the line before it
   carries provenance and the raw details. See README.md. *)

module Obs = Zkflow_obs.Obs
module Span = Zkflow_obs.Span
module Metric = Zkflow_obs.Metric
module Pool = Zkflow_parallel.Pool
module Receipt = Zkflow_zkproof.Receipt
module Jsonx = Zkflow_util.Jsonx
module W = Workloads
open Zkflow_core

let now = Unix.gettimeofday
let setup_reps = 5

(* In-process set-ups before the timed phase: the early rounds of a
   process run slow, so the clock starts on a warm one. *)
let warmups = 2
let jobs () = min 2 (Domain.recommended_domain_count ())

(* ---- workloads ---- *)

type workload = Backfill | Live | Audit

let workload_of_string = function
  | "backfill" -> Some Backfill
  | "live" -> Some Live
  | "audit" -> Some Audit
  | _ -> None

let workload_name = function Backfill -> "backfill" | Live -> "live" | Audit -> "audit"

let traffic = function
  | Backfill -> { Inputs.first = 12; per_epoch = 12; fresh = 4; population = 24 }
  | Live -> { Inputs.first = 24; per_epoch = 3; fresh = 1; population = 28 }
  | Audit -> { Inputs.first = 40; per_epoch = 0; fresh = 0; population = 40 }

(* Live's window period: about half of what the daemon sustains on a 2-core box. *)
let live_period = 1.25

let live_epochs seconds = max 2 (int_of_float (seconds /. live_period))

(* Epochs of generated history, founding epoch included. Backfill gets
   far more than a run at today's speed uses. *)
let history_length w seconds =
  match w with
  | Backfill -> 1 + max 16 (int_of_float (seconds *. 8.))
  | Live -> 1 + live_epochs seconds
  | Audit -> 1

(* The fixed amount of work the exact counts (and the traced pass) cover:
   epochs for backfill and live, query cycles for audit. *)
let exact_units w seconds =
  match w with Backfill -> 12 | Live -> min 8 (live_epochs seconds) | Audit -> 4

type inputs = {
  hist : Inputs.epoch_input array;
  refs : Clog.t array;
  queries : Guests.query_params array;
  flow_sets : (Guests.metric * Zkflow_netflow.Flowkey.t list) array;
}

let make_inputs w ~seed ~seconds =
  let hist = Array.of_list (Inputs.history ~seed ~epochs:(history_length w seconds) (traffic w)) in
  let refs = Inputs.references (Array.to_list hist) in
  let queries = Inputs.distinct_queries ~seed refs.(0) in
  let flow_sets =
    Array.of_list
      (Inputs.flow_sets ~seed ~count:(match w with Audit -> 512 | _ -> 0) ~size:16 refs.(0))
  in
  { hist; refs; queries; flow_sets }

(* Run the timed phase of [w] on a set-up daemon. [fixed] runs exactly
   the exact-count units instead of measuring for [seconds]. *)
let timed_phase w ~seconds ~fixed inp (i : W.inst) =
  let a = W.acc () in
  let units = exact_units w seconds in
  let continue ~units:u ~elapsed =
    if fixed then u < units else u < units || elapsed < seconds
  in
  (match w with
  | Backfill -> W.backfill ~continue i a inp.hist
  | Live ->
    let epochs = if fixed then units else live_epochs seconds in
    W.live ~period:live_period ~epochs i a inp.hist inp.queries
  | Audit -> W.audit ~continue i a inp.queries inp.flow_sets);
  a

(* ---- what a pass leaves behind ---- *)

type pass = {
  acc : W.acc;
  timed_rounds : (Prover_service.round_summary * int) list;
      (** rounds after the founding one, with receipt bytes *)
  counters : Daemon.counters;
  wal_bytes : int;
  rounds : int;
  round_ms : float list;  (** client verify_round, timed phase *)
  query_ms : float list;
  flows_ms : float list;
  chain_ms : float;
}

let drop_oldest n l = List.filteri (fun k _ -> k < List.length l - n) l

let collect (i : W.inst) a =
  let svc = W.service i in
  let timed_rounds =
    List.combine (Prover_service.summaries svc) (Prover_service.rounds svc)
    |> List.filter (fun ((s : Prover_service.round_summary), _) -> s.Prover_service.index > 0)
    |> List.map (fun (s, (r : Aggregate.round)) -> (s, Receipt.size r.Aggregate.receipt))
  in
  {
    acc = a;
    timed_rounds;
    counters = Daemon.counters i.W.d;
    wal_bytes = (try (Unix.stat i.W.wal).Unix.st_size with Unix.Unix_error _ -> 0);
    rounds = W.rounds_done i;
    (* newest first; the oldest sample is the founding round's *)
    round_ms = drop_oldest 1 (Client.round_ms i.W.client);
    query_ms = Client.query_ms i.W.client;
    flows_ms = Client.flows_ms i.W.client;
    chain_ms = Client.verify_chain i.W.client;
  }

let take n l = List.filteri (fun k _ -> k < n) l

(* Oldest-first proven answers and readouts. *)
let proven_rows p = List.rev p.acc.W.rows
let readouts p = List.rev p.acc.W.flows

(* The exact-count slice of a pass: rounds (backfill, live) or proven
   answers (audit) within the fixed units, as (cycles, receipt bytes,
   busy seconds). *)
let exact_slice w ~seconds p =
  let units = exact_units w seconds in
  match w with
  | Backfill | Live ->
    take units p.timed_rounds
    |> List.map (fun ((s : Prover_service.round_summary), bytes) ->
           (s.Prover_service.cycles, bytes, s.Prover_service.execute_s +. s.Prover_service.prove_s))
  | Audit ->
    (* five distinct proven queries per cycle *)
    take (5 * units) (proven_rows p)
    |> List.map (fun (r : Query.result_row) ->
           (r.Query.cycles, Receipt.size r.Query.receipt, r.Query.execute_s +. r.Query.prove_s))

let f = float_of_int
let ratio a b = if b = 0. then 0. else a /. b
let sumi l = List.fold_left ( + ) 0 l

let receipt_kb w ~seconds p =
  Stats.mean (List.map (fun (_, b, _) -> f b /. 1024.) (exact_slice w ~seconds p))

let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go () =
          let l = input_line ic in
          if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb -> f kb /. 1024.)
          else go ()
        in
        try go () with End_of_file -> 0.)
  with Sys_error _ -> 0.

(* ---- end-to-end metrics (untraced) ---- *)

let end_to_end w ~seconds ~setup p =
  let a = p.acc in
  let verify = match w with Audit -> p.query_ms | Backfill | Live -> p.round_ms in
  [
    ("setup_s", Stats.median setup, "s");
    ("ops_per_s", ratio (f (a.W.windows + a.W.answers)) a.W.wall, "1/s");
    ( "latency_p50_s",
      Stats.median (match w with Audit -> a.W.proven | Backfill | Live -> a.W.fresh),
      "s" );
    (* The 10th percentile, not the median: a verification is a few ms of
       single-thread hashing, and its median followed the host's speed
       and the concurrent proving in [live] (run spread up to 0.3, medians
       of two sets of runs 26 % apart), while the fast end of each run's
       samples is the client's own cost. *)
    ("verify_ms", Stats.quantile 0.1 verify, "ms");
    ("receipt_kb", receipt_kb w ~seconds p, "KB");
    ("peak_rss_mb", peak_rss_mb (), "MB");
  ]

(* ---- the traced pass: spans, counters, self time ---- *)

type traced = {
  tp : pass;
  obs_counters : (string * int) list;
  span_totals : (string * (int * float)) list;
  self_s : (string * float) list;  (** per layer, seconds *)
  covered_s : float;  (** wall covered by some top-level span *)
  pool : Pool.stats;
  cpu_s : float;
  minor_words : float;
  major_collections : int;
}

let layer_of name =
  let prefix = match String.index_opt name '.' with Some k -> String.sub name 0 k | None -> name in
  match (prefix, name) with
  | "bench", ("bench.verify_round" | "bench.verify_query" | "bench.verify_flows") -> "verifier"
  | "bench", _ -> "daemon"
  | ("agg" | "round"), _ -> "aggregate"
  | "query", _ -> "query"
  | ("zkproof" | "stark" | "fri"), _ -> "zkproof"
  | "merkle", _ -> "merkle"
  | "zkvm", _ -> "zkvm"
  | "pool", _ -> "parallel"
  | _ -> "other"

let layers = [ "daemon"; "verifier"; "aggregate"; "query"; "zkproof"; "merkle"; "zkvm"; "other" ]

(* Self time per layer along the blocking path: spans recorded on the
   main domain (where the daemon worker and the client threads run),
   each minus the part its child spans cover. Pool workers' spans run
   inside a blocking region of the main domain and are not counted
   again. In [live] two client threads and the daemon worker share the
   main domain, so their spans interleave and the nesting is only
   approximate there. *)
let self_times () =
  let main = (Domain.self () :> int) in
  let evs = Array.of_list (Span.events ()) in
  let child = Array.make (Array.length evs) 0 in
  Array.iter
    (fun (e : Span.evt) -> if e.Span.parent >= 0 then child.(e.parent) <- child.(e.parent) + e.dur_ns)
    evs;
  (* A pool region is a mechanism, not a layer: its self time is the
     parallel work of whichever layer opened it. Parents precede their
     children in [evs]. *)
  let layer = Array.make (Array.length evs) "other" in
  Array.iteri
    (fun k (e : Span.evt) ->
      layer.(k) <-
        (match layer_of e.Span.name with
        | "parallel" when e.parent >= 0 -> layer.(e.parent)
        | l -> l))
    evs;
  let tbl = Hashtbl.create 16 in
  let covered = ref 0 and reach = ref min_int in
  Array.iteri
    (fun k (e : Span.evt) ->
      if e.Span.tid = main then begin
        let self = max 0 (e.dur_ns - child.(k)) in
        let l = layer.(k) in
        Hashtbl.replace tbl l (self + Option.value ~default:0 (Hashtbl.find_opt tbl l));
        if e.parent < 0 then begin
          (* union of top-level intervals, swept in open-time order *)
          let fin = e.ts_ns + e.dur_ns in
          if fin > !reach then begin
            covered := !covered + (fin - max e.ts_ns !reach);
            reach := fin
          end
        end
      end)
    evs;
  let s ns = f ns /. 1e9 in
  (List.map (fun l -> (l, s (Option.value ~default:0 (Hashtbl.find_opt tbl l)))) layers, s !covered)

let traced_pass w ~seconds inp =
  Obs.reset ();
  Obs.enable ();
  let i, _ = W.setup ~reps:1 inp.refs inp.hist in
  Obs.reset ();
  let gc0 = Gc.quick_stat () and cpu0 = Unix.times () in
  let a = timed_phase w ~seconds ~fixed:true inp i in
  let gc1 = Gc.quick_stat () and cpu1 = Unix.times () in
  let obs_counters = Metric.counters () in
  let span_totals = Obs.span_totals_s () in
  let self_s, covered_s = self_times () in
  let pool = Pool.stats () in
  Obs.disable ();
  let tp = collect i a in
  W.retire i;
  let cpu (t : Unix.process_times) = t.Unix.tms_utime +. t.Unix.tms_stime in
  {
    tp;
    obs_counters;
    span_totals;
    self_s;
    covered_s;
    pool;
    cpu_s = cpu cpu1 -. cpu cpu0;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }

(* ---- untraced probes ---- *)

let median_of reps fn = Stats.median (List.init reps (fun _ -> fn ()))

(* The public SHA-256 over a fixed 1 MiB buffer, MB/s. *)
let sha256_mb_per_s () =
  let buf = Bytes.make (1 lsl 20) '\x5a' in
  median_of 3 (fun () ->
      let t0 = now () in
      for _ = 1 to 4 do
        let c = Zkflow_hash.Sha256.init () in
        Zkflow_hash.Sha256.update c buf;
        ignore (Zkflow_hash.Sha256.finalize c)
      done;
      4. /. (now () -. t0))

(* A cold static-analysis audit of both guests, ms. *)
let gate_ms () =
  let progs = [ Guests.aggregation_program; Guests.query_program ] in
  median_of 3 (fun () ->
      let t0 = now () in
      List.iter
        (fun p -> ignore (Zkflow_analysis.audit (Zkflow_zkvm.Program.instrs (Lazy.force p))))
        progs;
      (now () -. t0) *. 1000.)


(* ---- per-layer metrics ---- *)

(* Each per-layer metric is defined in every workload; one that has no
   subject in a workload (no queries in backfill, say) reads 0 there.
   Timings taken from outside come from the untraced pass [u]; spans,
   counters and self time from the traced pass [t]. *)
let per_layer w ~seconds inp ~u ~(t : traced) ~sha ~gate =
  let a = u.acc in
  let counter name = f (Option.value ~default:0 (List.assoc_opt name t.obs_counters)) in
  let span name = match List.assoc_opt name t.span_totals with Some (_, s) -> s | None -> 0. in
  let tw = t.tp.acc.W.wall in
  let t_cycles = counter "zkvm.cycles" in
  let t_rounds = f (List.length t.tp.timed_rounds) in
  let rounds = List.map fst u.timed_rounds in
  let rows = proven_rows u in
  let of_rounds g = List.map (fun (s : Prover_service.round_summary) -> g s) rounds in
  let of_rows g = List.map (fun (r : Query.result_row) -> g r) rows in
  let r_cycles = of_rounds (fun s -> f s.Prover_service.cycles) in
  let r_prove = of_rounds (fun s -> s.Prover_service.prove_s) in
  let r_exec = of_rounds (fun s -> s.Prover_service.execute_s) in
  let q_cycles = of_rows (fun r -> f r.Query.cycles) in
  let q_prove = of_rows (fun r -> r.Query.prove_s) in
  let q_exec = of_rows (fun r -> r.Query.execute_s) in
  let w_cycles, w_prove, w_exec =
    match w with Audit -> (q_cycles, q_prove, q_exec) | Backfill | Live -> (r_cycles, r_prove, r_exec)
  in
  let exact = exact_slice w ~seconds u in
  let exact_cycles = f (sumi (List.map (fun (c, _, _) -> c) exact)) in
  let exact_records =
    (* the exact rounds cover epochs 1..n of the history *)
    match w with
    | Audit -> 0.
    | Backfill | Live ->
      f (sumi (List.map (fun (e : Inputs.epoch_input) -> e.Inputs.records)
                 (take (List.length exact) (List.tl (Array.to_list inp.hist)))))
  in
  let clog_len = f (Clog.length inp.refs.(0)) in
  (* proven answers are the exact slice in audit; in live their roots
     depend on timing, so all of them count *)
  let q_counted = match w with Audit -> List.map (fun (c, _, _) -> f c) exact | _ -> q_cycles in
  let memo = u.counters in
  let busy p = Stats.sum (List.map (fun (_, _, b) -> b) (exact_slice w ~seconds p)) in
  let prove_total = span "zkproof.prove" in
  let tail = Stats.tail a.W.proven in
  let self l = ratio (Option.value ~default:0. (List.assoc_opt l t.self_s)) tw in
  [
    ("daemon.submit_ms", Stats.median a.W.submit_ms, "ms");
    ("daemon.window_wait_s", Stats.median a.W.window_wait, "s");
    ("daemon.query_wait_s", Stats.median a.W.query_wait, "s");
    ("daemon.queue_depth_max", f memo.Daemon.max_depth, "count");
    ( "daemon.memo_hit_ratio",
      ratio (f memo.Daemon.memo_hits) (f (memo.Daemon.memo_hits + memo.Daemon.memo_misses)),
      "ratio" );
    ("aggregate.prove_s_p50", Stats.median r_prove, "s");
    ("aggregate.execute_s_p50", Stats.median r_exec, "s");
    ("aggregate.cycles_per_record", ratio exact_cycles exact_records, "cycles");
    ( "aggregate.cycles_per_round",
      (match w with Audit -> 0. | _ -> Stats.median (List.map (fun (c, _, _) -> f c) exact)),
      "cycles" );
    ( "prover_service.checkpoint_kb_per_round",
      ratio (f t.tp.wal_bytes /. 1024.) (f t.tp.rounds),
      "KB" );
    ( "query.cycles_per_entry",
      ratio (Stats.sum q_counted) (clog_len *. f (List.length q_counted)),
      "cycles" );
    ("query.prove_s_p50", Stats.median q_prove, "s");
    ("query.execute_s_p50", Stats.median q_exec, "s");
    ("query.flows_ms", Stats.median (List.map fst (readouts u)), "ms");
    ( "query.flows_proof_bytes",
      Stats.mean (List.map (fun (_, b) -> f b) (take (2 * exact_units w seconds) (readouts u))),
      "B" );
    ("verifier.round_ms", Stats.median u.round_ms, "ms");
    ("verifier.query_ms", Stats.median u.query_ms, "ms");
    ("verifier.flows_ms", Stats.median u.flows_ms, "ms");
    ("verifier.chain_ms", u.chain_ms, "ms");
    ("zkproof.us_per_cycle", ratio (Stats.sum w_prove *. 1e6) (Stats.sum w_cycles), "us");
    ("zkproof.trace_commit_share", ratio (span "zkproof.trace_commit") prove_total, "ratio");
    ("zkproof.fs_share", ratio (span "zkproof.fs") prove_total, "ratio");
    ("zkproof.openings_share", ratio (span "zkproof.openings") prove_total, "ratio");
    ("zkproof.commit_cache_hits", counter "zkproof.commit_cache.hits", "count");
    ("merkle.nodes_hashed_per_cycle", ratio (counter "merkle.nodes_hashed") t_cycles, "1/cycle");
    ("merkle.nodes_reused_per_round", ratio (counter "merkle.nodes_reused") t_rounds, "count");
    ( "hash.sha256_compressions_per_cycle",
      ratio (counter "sha256.compressions") t_cycles,
      "1/cycle" );
    ("hash.sha256_mb_per_s", sha, "MB/s");
    ("zkvm.cycles_per_s", ratio (Stats.sum w_cycles) (Stats.sum w_exec), "1/s");
    ("parallel.utilization", Pool.utilization t.pool, "ratio");
    ("parallel.cpu_per_wall", ratio t.cpu_s tw, "ratio");
    ("analysis.gate_ms", gate, "ms");
    ("gc.minor_words_per_cycle", ratio t.minor_words t_cycles, "1/cycle");
    ("gc.major_collections", f t.major_collections, "count");
    ("obs.trace_overhead_frac", ratio (busy t.tp) (busy u) -. 1., "ratio");
    ("obs.unattributed_frac", Float.max 0. (1. -. ratio t.covered_s tw), "ratio");
    ("gen.late_ms_max", List.fold_left Float.max 0. a.W.late_ms, "ms");
    ("client.records_per_s", ratio (f a.W.records) a.W.wall, "1/s");
    ("client.queries_per_s", ratio (f a.W.answers) a.W.wall, "1/s");
    ("client.freshness_p50_s", Stats.median a.W.fresh, "s");
    ("client.query_p50_s", Stats.median a.W.proven, "s");
    ("client.query_tail_s", (match tail with Some (_, v) -> v | None -> 0.), "s");
  ]
  @ List.map (fun l -> ("self." ^ l ^ "_frac", self l, "ratio")) layers

(* ---- output ---- *)

let num x = Jsonx.Num x

let metrics_json ms =
  Jsonx.Obj
    (List.map (fun (n, v, u) -> (n, Jsonx.Obj [ ("value", num v); ("unit", Jsonx.Str u) ])) ms)

let result ~correct ~attempted ~failed ms =
  Jsonx.Obj
    [
      ("correct", Jsonx.Bool correct);
      ("attempted", num (f attempted));
      ("failed", num (f failed));
      ("metrics", metrics_json ms);
    ]

(* A latency sample as median, the highest percentile with at least ten
   samples beyond it, and the sample count. *)
let latency xs =
  Jsonx.Obj
    ([ ("samples", num (f (List.length xs))); ("p50_s", num (Stats.median xs)) ]
    @
    match Stats.tail xs with
    | Some (pct, v) -> [ ("tail_percentile", num (f pct)); ("tail_s", num v) ]
    | None -> [])

(* Values that must repeat bit-for-bit at a fixed seed. *)
let exact_signature w ~seconds p =
  List.map (fun (c, b, _) -> (c, b)) (exact_slice w ~seconds p)

let provenance ~w ~seed ~seconds ~trace ~jobs =
  Jsonx.Obj
    ([
       ("workload", Jsonx.Str (workload_name w));
       ("seed", num (f seed));
       ("seconds", num seconds);
       ("trace", Jsonx.Bool trace);
       ("pool_jobs", num (f jobs));
       ("nproc", num (f (Domain.recommended_domain_count ())));
       ("ocaml_version", Jsonx.Str Sys.ocaml_version);
       ("proof_queries", num (f W.proof_params.Zkflow_zkproof.Params.queries));
       ("setup_reps", num (f setup_reps));
       ("warmups", num (f warmups));
     ]
    @ Matrix.env_provenance ())

(* ---- set-up: cold, one child process each ---- *)

(* Child side: one set-up from a process that has compiled no guest and
   gated nothing yet. Prints "seconds attempted failed". *)
let cold_setup w ~seed =
  Pool.set_jobs (jobs ());
  let hist = Array.of_list (Inputs.history ~seed ~epochs:1 (traffic w)) in
  let refs = Inputs.references (Array.to_list hist) in
  let i, s = W.found refs hist in
  W.retire i;
  let a, f = !W.retired in
  Printf.printf "%.9f %d %d\n" s a f

(* Parent side: [setup_reps] children, one after the other; their
   operations count towards this run's attempted and failed. *)
let cold_setups w ~seed =
  List.init setup_reps (fun _ ->
      let exe = Sys.executable_name in
      let ic =
        Unix.open_process_args_in exe [| exe; "--cold-setup"; workload_name w; string_of_int seed |]
      in
      let line = try input_line ic with End_of_file -> "" in
      match (Unix.close_process_in ic, Scanf.sscanf_opt line "%f %d %d" (fun s a f -> (s, a, f))) with
      | Unix.WEXITED 0, Some (s, a, f) ->
        let a0, f0 = !W.retired in
        W.retired := (a0 + a, f0 + f);
        s
      | _ -> failwith "perfbench: a cold set-up failed")

(* ---- a run ---- *)

let run w ~seed ~seconds ~trace =
  let jobs = jobs () in
  Pool.set_jobs jobs;
  let setup = cold_setups w ~seed in
  let inp = make_inputs w ~seed ~seconds in
  let sha = if trace then sha256_mb_per_s () else 0. in
  let gate = if trace then gate_ms () else 0. in
  let i, warm = W.setup ~reps:warmups inp.refs inp.hist in
  let a = timed_phase w ~seconds ~fixed:false inp i in
  let u = collect i a in
  W.retire i;
  let e2e = end_to_end w ~seconds ~setup u in
  let t = if trace then Some (traced_pass w ~seconds inp) else None in
  let deterministic =
    match t with
    | None -> true
    | Some t -> exact_signature w ~seconds u = exact_signature w ~seconds t.tp
  in
  if not deterministic then
    prerr_endline "perfbench: determinism failure: exact counts differ between the untraced and traced pass";
  let attempted, failed = !W.retired in
  let metrics =
    match t with None -> e2e | Some t -> per_layer w ~seconds inp ~u ~t ~sha ~gate
  in
  let detail =
    Jsonx.Obj
      [
        ("provenance", provenance ~w ~seed ~seconds ~trace ~jobs);
        ("deterministic", Jsonx.Bool deterministic);
        ("setup_samples_s", Jsonx.Arr (List.map num setup));
        ("warm_setup_samples_s", Jsonx.Arr (List.map num warm));
        ("timed_wall_s", num a.W.wall);
        ("units", num (f a.W.units));
        ("windows", num (f a.W.windows));
        ("answers", num (f a.W.answers));
        ("freshness", latency a.W.fresh);
        ("answer_latency", latency a.W.proven);
        ( "exact",
          Jsonx.Arr
            (List.map (fun (c, b) -> Jsonx.Arr [ num (f c); num (f b) ]) (exact_signature w ~seconds u)) );
        ("end_to_end", metrics_json e2e);
      ]
  in
  print_endline (Jsonx.to_string detail);
  print_endline
    (Jsonx.to_string (result ~correct:(failed = 0 && deterministic) ~attempted ~failed metrics))

(* ---- self-test: the oracle counts bad output as failed ---- *)

let tamper_journal (r : Receipt.t) ~from_end =
  let j = Array.copy r.Receipt.claim.Receipt.journal in
  let k = Array.length j - from_end in
  j.(k) <- j.(k) lxor 1;
  { r with Receipt.claim = { r.Receipt.claim with Receipt.journal = j } }

let selftest () =
  Pool.set_jobs (jobs ());
  let tr = { Inputs.first = 8; per_epoch = 0; fresh = 0; population = 8 } in
  let hist = Array.of_list (Inputs.history ~seed:1 ~epochs:1 tr) in
  let refs = Inputs.references (Array.to_list hist) in
  let i, _ = W.setup ~reps:1 refs hist in
  let a = W.acc () in
  let board = i.W.client.Client.board in
  let all_ok = ref true in
  (* [expect_failed] operations must be counted as failed, the rest not *)
  let case name ~expect_failed ~client fn =
    let before = Client.failed client in
    fn ();
    let counted = Client.failed client - before in
    let ok = counted = if expect_failed then 1 else 0 in
    if not ok then all_ok := false;
    Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name
  in
  let round0 = (List.hd (Prover_service.rounds (W.service i))).Aggregate.receipt in
  (let c = Client.create ~board ~refs in
   case "genuine aggregation receipt accepted" ~expect_failed:false ~client:c (fun () ->
       ignore (Client.verify_round c ~epoch:0 round0)));
  (let c = Client.create ~board ~refs in
   case "corrupted aggregation receipt counted as failed" ~expect_failed:true ~client:c (fun () ->
       ignore (Client.verify_round c ~epoch:0 (tamper_journal round0 ~from_end:1))));
  let q = (Inputs.distinct_queries ~seed:1 refs.(0)).(0) in
  let q' = (Inputs.distinct_queries ~seed:1 refs.(0)).(1) in
  let c = i.W.client in
  case "genuine answer accepted" ~expect_failed:false ~client:c (fun () ->
      W.ask i a ~t0:(now ()) q);
  (match Daemon.query i.W.d q with
  | Error e -> failwith e
  | Ok (row, _) ->
    case "corrupted query receipt counted as failed" ~expect_failed:true ~client:c (fun () ->
        ignore
          (Client.check_answer c q
             { row with Query.receipt = tamper_journal row.Query.receipt ~from_end:2 }));
    case "wrong answer (a different query's receipt) counted as failed" ~expect_failed:true
      ~client:c (fun () -> ignore (Client.check_answer c q' row)));
  let keys = List.map (fun (e : Clog.entry) -> e.Clog.key) (take 3 (Array.to_list (Clog.entries refs.(0)))) in
  (match Daemon.query_flows i.W.d ~metric:Guests.Bytes keys with
  | Error e -> failwith e
  | Ok (fr, _) ->
    case "genuine readout accepted" ~expect_failed:false ~client:c (fun () ->
        ignore (Client.check_flows c ~metric:Guests.Bytes keys fr));
    let bad =
      match fr.Query.rows with
      | r :: rest -> { fr with Query.rows = { r with Query.value = r.Query.value + 1 } :: rest }
      | [] -> fr
    in
    case "wrong readout value counted as failed" ~expect_failed:true ~client:c (fun () ->
        ignore (Client.check_flows c ~metric:Guests.Bytes keys bad)));
  W.retire i;
  if !all_ok then exit 0 else exit 1

(* ---- command line ---- *)

let usage () =
  prerr_endline
    "usage: perfbench --workload backfill|live|audit --seed N --seconds S --trace 0|1\n\
    \       perfbench --selftest\n\
    \       perfbench --cold-setup backfill|live|audit SEED";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  at_exit (fun () -> try Sys.rmdir W.state_dir with Sys_error _ -> ());
  match args with
  | [ "--selftest" ] -> selftest ()
  | [ "--cold-setup"; w; seed ] -> (
    match (workload_of_string w, int_of_string_opt seed) with
    | Some w, Some seed -> cold_setup w ~seed
    | _ -> usage ())
  | _ ->
    let rec parse acc = function
      | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let opts = parse [] args in
    let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
    let w = match workload_of_string (get "workload") with Some w -> w | None -> usage () in
    match (int_of_string_opt (get "seed"), float_of_string_opt (get "seconds"), get "trace") with
    | Some seed, Some seconds, ("0" | "1" as tr) when seconds > 0. ->
      run w ~seed ~seconds ~trace:(tr = "1")
    | _ -> usage ()
