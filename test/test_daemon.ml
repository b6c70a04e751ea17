(* The resident daemon: bounded ingest with reject-newest shedding and
   at-most-once windows, watermark-driven deterministic rounds,
   crash/kill + supervised restart with bit-identical roots, the
   circuit breaker flipping publication failures into degraded rounds
   + heal, late-arrival gap journalling, graceful drain (including a
   crash mid-drain), memoized query proofs, and the /healthz
   verdict. *)

module D = Zkflow_hash.Digest32
module Record = Zkflow_netflow.Record
module Gen = Zkflow_netflow.Gen
module Db = Zkflow_store.Db
module Board = Zkflow_commitlog.Board
module Fault = Zkflow_fault.Fault
module Rng = Zkflow_util.Rng
module Obs = Zkflow_obs.Obs
module Event = Zkflow_obs.Event
module Httpd = Zkflow_obs.Httpd
open Zkflow_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let params = Zkflow_zkproof.Params.make ~queries:8

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let with_tmp f =
  let path = Filename.temp_file "zkflow_daemon" ".wal" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".tmp" ])
    (fun () ->
      Sys.remove path;
      f path)

let with_plan plan f =
  Fault.install plan;
  Fun.protect ~finally:Fault.clear f

let plan ?(seed = 0) ?(name = "test") faults = { Fault.seed; name; faults }

(* Deterministic daemon config: no real sleeping in retry backoff. *)
let cfg =
  {
    Daemon.default_config with
    retry_sleep = (fun (_ : float) -> ());
    queue_capacity = 16;
  }

(* One router's window export for an epoch: seeded records re-stamped
   into the epoch's 5-second window, exactly like a router batching
   its flow log. *)
let window_records ~router_id ~epoch ~count ~seed =
  let records =
    Gen.records
      (Rng.create (Int64.of_int (seed + (1000 * router_id) + epoch)))
      Gen.default_profile ~router_id ~count
  in
  Array.to_list records
  |> List.map (fun rc ->
         Record.make ~key:rc.Record.key ~first_ts:(epoch * 5000)
           ~last_ts:((epoch * 5000) + 100) ~router_id rc.Record.metrics)

let fresh_daemon ?(config = cfg) ?paused ~ckpt () =
  let db = Db.create ~epoch:Zkflow_store.Epoch.default () in
  let board = Board.create () in
  match
    Daemon.create ~config ~proof_params:params ?paused ~db ~board
      ~ckpt_path:ckpt ()
  with
  | Error e -> Alcotest.fail ("daemon create: " ^ e)
  | Ok (d, restored) -> (d, db, board, restored)

let check_verified ?(complete = true) d board =
  let service = Daemon.service d in
  match
    Verifier_client.verify_coverage ~board
      ~gaps:(Prover_service.open_gaps service)
      (Verifier_client.covered_rounds service)
  with
  | Error e -> Alcotest.fail ("coverage rejected: " ^ e)
  | Ok report ->
    check_bool "coverage complete" complete report.Verifier_client.complete

let submit_ok d ~router_id ~epoch records =
  match Daemon.submit d ~router_id ~epoch records with
  | Daemon.Accepted -> ()
  | _ -> Alcotest.fail "submit not accepted"

let settle d =
  match Daemon.await_idle d with
  | `Idle -> ()
  | `Crashed site -> Alcotest.fail ("unexpected crash at " ^ site)

(* A fixed two-router, two-epoch submission schedule; returns the
   final root. *)
let drive_schedule d =
  for epoch = 0 to 1 do
    for router_id = 0 to 1 do
      submit_ok d ~router_id ~epoch
        (window_records ~router_id ~epoch ~count:3 ~seed:7)
    done;
    Daemon.advance d ~epoch;
    settle d
  done;
  (match Daemon.drain d with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("drain: " ^ e));
  Daemon.root_hex d

(* ---- ingest → rounds → drain, query memo ---- *)

let test_ingest_prove_drain () =
  with_tmp (fun ckpt ->
      let d, _db, board, restored = fresh_daemon ~ckpt () in
      Fun.protect
        ~finally:(fun () -> Daemon.stop d)
        (fun () ->
          check_int "fresh start" 0 restored;
          let root = drive_schedule d in
          check_bool "non-empty root" true (root <> D.to_hex D.zero);
          let c = Daemon.counters d in
          check_int "accepted" 4 c.Daemon.accepted;
          check_int "shed" 0 c.Daemon.shed;
          check_int "rounds" 2 c.Daemon.rounds;
          check_bool "bounded depth" true
            (c.Daemon.max_depth <= cfg.Daemon.queue_capacity);
          check_verified d board;
          (* intake is closed after drain *)
          check_bool "intake closed" true
            (Daemon.submit d ~router_id:0 ~epoch:9
               (window_records ~router_id:0 ~epoch:9 ~count:1 ~seed:7)
            = Daemon.Closed);
          (* query memo: identical query is a cache hit with the same
             proof *)
          let q =
            {
              Guests.predicate = Guests.match_any;
              op = Guests.Sum;
              metric = Guests.Packets;
            }
          in
          (match (Daemon.query d q, Daemon.query d q) with
          | Ok (r1, false), Ok (r2, true) ->
            check_int "same result" r1.Query.journal.Guests.result
              r2.Query.journal.Guests.result
          | Ok (_, c1), Ok (_, c2) ->
            Alcotest.failf "memo flags: first cached=%b second cached=%b" c1 c2
          | Error e, _ | _, Error e -> Alcotest.fail e);
          (* multi-flow memo *)
          let clog = Prover_service.clog (Daemon.service d) in
          let entries = Clog.entries clog in
          let keys =
            [ entries.(0).Clog.key; entries.(1).Clog.key ]
          in
          (match
             ( Daemon.query_flows d ~metric:Guests.Bytes keys,
               Daemon.query_flows d ~metric:Guests.Bytes keys )
           with
          | Ok (f1, false), Ok (f2, true) ->
            check_int "same total" f1.Query.total f2.Query.total
          | Ok _, Ok _ -> Alcotest.fail "flows memo flags wrong"
          | Error e, _ | _, Error e -> Alcotest.fail e);
          let c = Daemon.counters d in
          check_int "memo hits" 2 c.Daemon.memo_hits;
          check_int "memo misses" 2 c.Daemon.memo_misses))

(* ---- reject-newest shedding, at-most-once windows ---- *)

let test_shed_and_duplicate () =
  with_tmp (fun ckpt ->
      let config = { cfg with Daemon.queue_capacity = 2 } in
      let d, _db, board, _ = fresh_daemon ~config ~paused:true ~ckpt () in
      Fun.protect
        ~finally:(fun () -> Daemon.stop d)
        (fun () ->
          let w r e = window_records ~router_id:r ~epoch:e ~count:2 ~seed:11 in
          Obs.with_enabled (fun () ->
              check_bool "first accepted" true
                (Daemon.submit d ~router_id:0 ~epoch:0 (w 0 0) = Daemon.Accepted);
              check_bool "second accepted" true
                (Daemon.submit d ~router_id:1 ~epoch:0 (w 1 0) = Daemon.Accepted);
              (* queue full: newest is rejected *)
              check_bool "third shed" true
                (Daemon.submit d ~router_id:0 ~epoch:1 (w 0 1) = Daemon.Shed);
              (* an accepted window can never be double-ingested *)
              check_bool "duplicate rejected" true
                (Daemon.submit d ~router_id:0 ~epoch:0 (w 0 0) = Daemon.Duplicate);
              let shed_events =
                List.filter
                  (fun (e : Event.t) -> e.kind = "daemon.ingest.shed")
                  (Event.events ())
              in
              check_int "one shed event" 1 (List.length shed_events));
          let c = Daemon.counters d in
          check_int "accepted" 2 c.Daemon.accepted;
          check_int "shed" 1 c.Daemon.shed;
          check_int "duplicates" 1 c.Daemon.duplicates;
          check_bool "depth bounded by capacity" true (c.Daemon.max_depth <= 2);
          (* release the worker; the shed window can be resubmitted *)
          Daemon.unpause d;
          Daemon.advance d ~epoch:0;
          settle d;
          check_bool "resubmission accepted" true
            (Daemon.submit d ~router_id:0 ~epoch:1 (w 0 1) = Daemon.Accepted);
          Daemon.advance d ~epoch:1;
          (match Daemon.drain d with
          | Ok () -> ()
          | Error e -> Alcotest.fail ("drain: " ^ e));
          let c = Daemon.counters d in
          check_int "both epochs proved" 2 c.Daemon.rounds;
          check_verified d board))

(* ---- crash → supervised restart → bit-identical root ---- *)

let test_crash_restart_bit_identical () =
  with_tmp (fun ckpt_twin ->
      with_tmp (fun ckpt ->
          (* the uninterrupted twin *)
          let twin, _, _, _ = fresh_daemon ~ckpt:ckpt_twin () in
          let twin_root =
            Fun.protect
              ~finally:(fun () -> Daemon.stop twin)
              (fun () -> drive_schedule twin)
          in
          (* same schedule, killed by the first round's checkpoint *)
          let d, _db, board, _ = fresh_daemon ~ckpt () in
          Fun.protect
            ~finally:(fun () -> Daemon.stop d)
            (fun () ->
              with_plan
                (plan [ Fault.Crash_at { site = "agg.pre_checkpoint"; hits = 1 } ])
                (fun () ->
                  for router_id = 0 to 1 do
                    submit_ok d ~router_id ~epoch:0
                      (window_records ~router_id ~epoch:0 ~count:3 ~seed:7)
                  done;
                  Daemon.advance d ~epoch:0;
                  (match Daemon.await_idle d with
                  | `Crashed "agg.pre_checkpoint" -> ()
                  | `Crashed site -> Alcotest.fail ("wrong site: " ^ site)
                  | `Idle -> Alcotest.fail "expected a crash");
                  (* while down: unhealthy, intake closed *)
                  let h = Daemon.health d in
                  check_bool "unhealthy while crashed" false h.Daemon.healthy;
                  check_bool "submit while down" true
                    (Daemon.submit d ~router_id:0 ~epoch:1
                       (window_records ~router_id:0 ~epoch:1 ~count:3 ~seed:7)
                    = Daemon.Closed);
                  match Daemon.restart d with
                  | Error e -> Alcotest.fail ("restart: " ^ e)
                  | Ok restored ->
                    (* the crash hit before the first synced row *)
                    check_int "nothing restored" 0 restored;
                    settle d);
              (* finish the schedule clean *)
              for router_id = 0 to 1 do
                submit_ok d ~router_id ~epoch:1
                  (window_records ~router_id ~epoch:1 ~count:3 ~seed:7)
              done;
              Daemon.advance d ~epoch:1;
              (match Daemon.drain d with
              | Ok () -> ()
              | Error e -> Alcotest.fail ("drain: " ^ e));
              check_string "root bit-identical to twin" twin_root
                (Daemon.root_hex d);
              check_verified d board)))

(* ---- kill -9 mid-drain, restart, drain completes ---- *)

let test_kill_during_drain () =
  with_tmp (fun ckpt_twin ->
      with_tmp (fun ckpt ->
          let twin, _, _, _ = fresh_daemon ~ckpt:ckpt_twin () in
          let twin_root =
            Fun.protect
              ~finally:(fun () -> Daemon.stop twin)
              (fun () ->
                for router_id = 0 to 1 do
                  submit_ok twin ~router_id ~epoch:0
                    (window_records ~router_id ~epoch:0 ~count:3 ~seed:3)
                done;
                ignore (Daemon.drain twin);
                Daemon.root_hex twin)
          in
          let d, _db, board, _ = fresh_daemon ~ckpt () in
          Fun.protect
            ~finally:(fun () -> Daemon.stop d)
            (fun () ->
              (* records queued but watermark never advanced: the round
                 only happens inside the drain *)
              for router_id = 0 to 1 do
                submit_ok d ~router_id ~epoch:0
                  (window_records ~router_id ~epoch:0 ~count:3 ~seed:3)
              done;
              settle d;
              with_plan
                (plan [ Fault.Crash_at { site = "agg.pre_prove"; hits = 1 } ])
                (fun () ->
                  match Daemon.drain d with
                  | Ok () -> Alcotest.fail "drain should crash"
                  | Error _ ->
                    check_bool "crashed" true (Daemon.crashed d <> None));
              (match Daemon.restart d with
              | Error e -> Alcotest.fail ("restart: " ^ e)
              | Ok _ -> ());
              (match Daemon.drain d with
              | Ok () -> ()
              | Error e -> Alcotest.fail ("second drain: " ^ e));
              check_string "root matches twin" twin_root (Daemon.root_hex d);
              check_verified d board)))

(* ---- circuit breaker: publish failures degrade, then heal ---- *)

let test_breaker_degrades_then_heals () =
  with_tmp (fun ckpt ->
      let config =
        {
          cfg with
          Daemon.retry_attempts = 2;
          breaker_threshold = 1;
          breaker_cooldown = 1;
        }
      in
      let d, _db, board, _ = fresh_daemon ~config ~ckpt () in
      Fun.protect
        ~finally:(fun () -> Daemon.stop d)
        (fun () ->
          with_plan
            (plan [ Fault.Flaky { site = "daemon.publish"; failures = 100 } ])
            (fun () ->
              submit_ok d ~router_id:0 ~epoch:0
                (window_records ~router_id:0 ~epoch:0 ~count:3 ~seed:5);
              Daemon.advance d ~epoch:0;
              settle d;
              (* publication exhausted its retries: breaker open, the
                 epoch went down the degraded path as an open gap *)
              let c = Daemon.counters d in
              check_bool "breaker opened" true (c.Daemon.breaker_opens >= 1);
              Alcotest.(check (list (pair int int)))
                "gap journalled" [ (0, 0) ]
                (Prover_service.open_gaps (Daemon.service d)));
          (* the edge recovers: half-open probe succeeds, heal folds
             the gap in *)
          Daemon.advance d ~epoch:0;
          settle d;
          let c = Daemon.counters d in
          check_string "breaker closed again" "closed" c.Daemon.breaker;
          check_int "one heal round" 1 c.Daemon.heal_rounds;
          Alcotest.(check (list (pair int int)))
            "no open gaps" []
            (Prover_service.open_gaps (Daemon.service d));
          check_verified d board))

(* ---- late-arriving export: note_gap + heal (publish:false) ---- *)

let test_late_arrival_heals () =
  with_tmp (fun ckpt ->
      let config = { cfg with Daemon.publish = false } in
      let d, db, board, _ = fresh_daemon ~config ~ckpt () in
      Fun.protect
        ~finally:(fun () -> Daemon.stop d)
        (fun () ->
          submit_ok d ~router_id:0 ~epoch:0
            (window_records ~router_id:0 ~epoch:0 ~count:3 ~seed:9);
          settle d;
          (* the harness plays router: publish r0's window, round runs *)
          (match
             Board.publish board (Db.window db ~router_id:0 ~epoch:0)
               ~router_id:0 ~epoch:0
           with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e);
          Daemon.advance d ~epoch:0;
          settle d;
          check_int "round ran" 1 (Daemon.counters d).Daemon.rounds;
          (* router 1's export arrives after the round: journalled as a
             gap, not silently absorbed *)
          submit_ok d ~router_id:1 ~epoch:0
            (window_records ~router_id:1 ~epoch:0 ~count:3 ~seed:9);
          settle d;
          Alcotest.(check (list (pair int int)))
            "late export journalled" [ (1, 0) ]
            (Prover_service.open_gaps (Daemon.service d));
          (* it publishes; a poke triggers the heal *)
          (match
             Board.publish board (Db.window db ~router_id:1 ~epoch:0)
               ~router_id:1 ~epoch:0
           with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e);
          Daemon.advance d ~epoch:0;
          settle d;
          check_int "healed" 1 (Daemon.counters d).Daemon.heal_rounds;
          Alcotest.(check (list (pair int int)))
            "gap closed" []
            (Prover_service.open_gaps (Daemon.service d));
          check_verified d board))

(* ---- stop + fresh create resumes from the checkpoint WAL ---- *)

let test_resume_across_restart () =
  with_tmp (fun ckpt ->
      let db = Db.create ~epoch:Zkflow_store.Epoch.default () in
      let board = Board.create () in
      let mk () =
        match
          Daemon.create ~config:cfg ~proof_params:params ~db ~board
            ~ckpt_path:ckpt ()
        with
        | Error e -> Alcotest.fail ("daemon create: " ^ e)
        | Ok (d, restored) -> (d, restored)
      in
      let d, _ = mk () in
      let root =
        Fun.protect
          ~finally:(fun () -> Daemon.stop d)
          (fun () -> drive_schedule d)
      in
      (* a new process over the same state: rounds come back from the
         WAL, nothing is re-proved, the root is bit-identical *)
      let d2, restored = mk () in
      Fun.protect
        ~finally:(fun () -> Daemon.stop d2)
        (fun () ->
          check_int "both rounds restored" 2 restored;
          (match Daemon.drain d2 with
          | Ok () -> ()
          | Error e -> Alcotest.fail ("drain: " ^ e));
          check_int "nothing re-proved" 0 (Daemon.counters d2).Daemon.rounds;
          check_string "root preserved" root (Daemon.root_hex d2)))

(* ---- the HTTP plane over a live daemon ---- *)

let test_handler_endpoints () =
  with_tmp (fun ckpt ->
      let d, _db, _board, _ = fresh_daemon ~ckpt () in
      Fun.protect
        ~finally:(fun () -> Daemon.stop d)
        (fun () ->
          ignore (drive_schedule d);
          let h = Daemon.handler d in
          let get target = Watch.probe h target in
          let status = get "/status" in
          check_int "status 200" 200 status.Httpd.status;
          check_bool "status has root" true
            (contains ~needle:(Daemon.root_hex d)
               status.Httpd.body);
          let healthz = get "/healthz" in
          check_int "healthz 200 when healthy" 200 healthz.Httpd.status;
          let q = get "/query?op=sum&metric=packets" in
          check_int "query 200" 200 q.Httpd.status;
          check_bool "query result present" true
            (contains ~needle:{|"result":|} q.Httpd.body);
          let q2 = get "/query?op=sum&metric=packets" in
          check_bool "second query cached" true
            (contains ~needle:{|"cached":true|} q2.Httpd.body);
          let f = get "/flows?metric=bytes&first=2" in
          check_int "flows 200" 200 f.Httpd.status;
          check_bool "flows rows present" true
            (contains ~needle:{|"rows":|} f.Httpd.body);
          let bad = get "/query?src=notanip" in
          check_int "bad query 400" 400 bad.Httpd.status;
          let slo = get "/slo" in
          check_int "slo 200" 200 slo.Httpd.status))

let () =
  Alcotest.run "zkflow_daemon"
    [
      ( "daemon",
        [
          Alcotest.test_case "ingest, prove, drain, query memo" `Quick
            test_ingest_prove_drain;
          Alcotest.test_case "reject-newest shed + duplicate windows" `Quick
            test_shed_and_duplicate;
          Alcotest.test_case "crash, restart, bit-identical root" `Quick
            test_crash_restart_bit_identical;
          Alcotest.test_case "kill -9 mid-drain" `Quick test_kill_during_drain;
          Alcotest.test_case "breaker: degrade then heal" `Quick
            test_breaker_degrades_then_heals;
          Alcotest.test_case "late export: note_gap + heal" `Quick
            test_late_arrival_heals;
          Alcotest.test_case "resume across process restart" `Quick
            test_resume_across_restart;
          Alcotest.test_case "HTTP plane endpoints" `Quick
            test_handler_endpoints;
        ] );
    ]
