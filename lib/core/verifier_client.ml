module D = Zkflow_hash.Digest32
module Receipt = Zkflow_zkproof.Receipt
module Verify = Zkflow_zkproof.Verify
module Board = Zkflow_commitlog.Board
module Commitment = Zkflow_commitlog.Commitment
module Event = Zkflow_obs.Event
module Jsonx = Zkflow_util.Jsonx

type verified_chain = { final_root : D.t; round_count : int }

let ( let* ) = Result.bind

(* Every verdict — accept or reject — is a flight-recorder event on
   the verifier track, and a rejection names the check that failed so
   a health report can count rejections by cause. *)
let reject ?router ?epoch ?round ?query ~check detail =
  Event.emit ?router ?epoch ?round ?query ~track:"verifier" "verifier.reject"
    ~attrs:[ ("check", Jsonx.Str check); ("detail", Jsonx.Str detail) ];
  Error detail

let checked ?router ?epoch ?round ?query ~check = function
  | Ok _ as ok -> ok
  | Error detail -> reject ?router ?epoch ?round ?query ~check detail

let verify_round ?expected_prev ?round ?routers ~board ~epoch receipt =
  let check name r = checked ?round ~epoch ~check:name r in
  let program = Lazy.force Guests.aggregation_program in
  let* () = check "proof" (Verify.verify ~program receipt) in
  let* journal =
    check "journal"
      (Guests.parse_aggregation_journal receipt.Receipt.claim.Receipt.journal)
  in
  let* () =
    check "chain"
      (match expected_prev with
      | None -> Ok ()
      | Some root ->
        if D.equal root journal.Guests.prev_root then Ok ()
        else Error "client: aggregation round does not chain from expected root")
  in
  (* Every router digest the guest consumed must be a commitment that
     was actually published for this epoch. A degraded round claims a
     subset via [?routers]; the claim is still checked digest by
     digest, so it can only name routers that really published. *)
  let published =
    match routers with Some rs -> rs | None -> Board.routers board
  in
  let* () =
    check "router_set"
      (if List.length published <> List.length journal.Guests.router_digests then
         Error "client: round covers a different router set than claimed"
       else Ok ())
  in
  let rec check_routers routers digests =
    match (routers, digests) with
    | [], [] -> Ok ()
    | router_id :: rs, digest :: ds -> (
      match Board.lookup board ~router_id ~epoch with
      | None ->
        reject ?round ~router:router_id ~epoch ~check:"board_lookup"
          (Printf.sprintf "client: router %d published nothing for epoch %d"
             router_id epoch)
      | Some c ->
        if D.equal c.Commitment.batch digest then check_routers rs ds
        else
          reject ?round ~router:router_id ~epoch ~check:"digest_match"
            (Printf.sprintf "client: router %d digest differs from the board"
               router_id))
    | _ -> reject ?round ~epoch ~check:"arity" "client: router digest arity mismatch"
  in
  let* () = check_routers published journal.Guests.router_digests in
  Event.emit ?round ~epoch ~track:"verifier" "verifier.round.accept"
    ~attrs:[ ("new_root", Jsonx.Str (D.short journal.Guests.new_root)) ];
  Ok journal

let verify_chain ~board rounds =
  let rec go prev count = function
    | [] ->
      Event.emit ~track:"verifier" "verifier.chain.accept"
        ~attrs:
          [
            ("rounds", Jsonx.Num (float_of_int count));
            ("final_root", Jsonx.Str (D.short prev));
          ];
      Ok { final_root = prev; round_count = count }
    | (epoch, receipt) :: rest ->
      let* journal = verify_round ~expected_prev:prev ~round:count ~board ~epoch receipt in
      go journal.Guests.new_root (count + 1) rest
  in
  go Clog.empty_root 0 rounds

(* ---- degraded-history verification ---- *)

type covered_round = {
  epoch : int;
  routers : int list;
  degraded : bool;
  heal : bool;
  receipt : Receipt.t;
}

let covered_rounds service =
  List.map2
    (fun (c : Prover_service.coverage) (r : Aggregate.round) ->
      {
        epoch = c.Prover_service.epoch;
        routers = c.Prover_service.routers;
        degraded = c.Prover_service.degraded;
        heal = c.Prover_service.heal;
        receipt = r.Aggregate.receipt;
      })
    (Prover_service.coverage service)
    (Prover_service.rounds service)

type coverage_report = {
  final_root : D.t;
  round_count : int;
  complete : bool;
}

(* The degraded-mode counterpart of [verify_chain]: the operator hands
   over, per round, {e which} (router, epoch) pairs it covered, plus
   the gap journal's open entries. The client then enforces, from
   public data alone, that the history is honest about its own holes:

   - each round verifies against its claimed subset (so a claim can
     only name really-published commitments, in the claimed order);
   - no (router, epoch) pair is aggregated twice across rounds
     (a heal round must not double-count a pair a degraded round
     already folded in);
   - every pair on the board is either covered by some round or
     explicitly named as an open gap — a pair that is neither is
     {e silent loss}, and the whole history is rejected;
   - an "open gap" that some round did cover is an inconsistent claim
     and is likewise rejected.

   [complete] is true when there are no open gaps: the aggregate
   covers everything the board promised. *)
let verify_coverage ~board ~gaps rounds =
  let covered = Hashtbl.create 64 in
  let rec go prev count = function
    | [] -> Ok (prev, count)
    | r :: rest ->
      let* journal =
        verify_round ~expected_prev:prev ~round:count ~routers:r.routers ~board
          ~epoch:r.epoch r.receipt
      in
      let* () =
        let rec claim = function
          | [] -> Ok ()
          | router_id :: rs ->
            if Hashtbl.mem covered (router_id, r.epoch) then
              reject ~round:count ~router:router_id ~epoch:r.epoch
                ~check:"coverage.duplicate"
                (Printf.sprintf
                   "client: router %d epoch %d aggregated by two rounds"
                   router_id r.epoch)
            else begin
              Hashtbl.replace covered (router_id, r.epoch) ();
              claim rs
            end
        in
        claim r.routers
      in
      go journal.Guests.new_root (count + 1) rest
  in
  let* final_root, round_count = go Clog.empty_root 0 rounds in
  let* () =
    let rec check_gaps = function
      | [] -> Ok ()
      | (router_id, epoch) :: rest ->
        if Hashtbl.mem covered (router_id, epoch) then
          reject ~router:router_id ~epoch ~check:"coverage.gap_covered"
            (Printf.sprintf
               "client: router %d epoch %d claimed as an open gap but covered"
               router_id epoch)
        else check_gaps rest
    in
    check_gaps gaps
  in
  let* () =
    let rec check_board = function
      | [] -> Ok ()
      | router_id :: rest ->
        let rec check_commitments = function
          | [] -> check_board rest
          | (c : Commitment.t) :: cs ->
            let epoch = c.Commitment.epoch in
            if
              Hashtbl.mem covered (router_id, epoch)
              || List.mem (router_id, epoch) gaps
            then check_commitments cs
            else
              reject ~router:router_id ~epoch ~check:"coverage.silent_loss"
                (Printf.sprintf
                   "client: router %d epoch %d on the board but neither \
                    covered nor declared a gap"
                   router_id epoch)
        in
        check_commitments (Board.commitments board ~router_id)
    in
    check_board (Board.routers board)
  in
  let complete = gaps = [] in
  Event.emit ~track:"verifier" "verifier.coverage.accept"
    ~attrs:
      [
        ("rounds", Jsonx.Num (float_of_int round_count));
        ("covered", Jsonx.Num (float_of_int (Hashtbl.length covered)));
        ("open_gaps", Jsonx.Num (float_of_int (List.length gaps)));
        ("final_root", Jsonx.Str (D.short final_root));
      ];
  Ok { final_root; round_count; complete }

let verify_query ?query ~expected_root receipt =
  let check name r = checked ?query ~check:name r in
  let program = Lazy.force Guests.query_program in
  let* () = check "query.proof" (Verify.verify ~program receipt) in
  let* journal =
    check "query.journal"
      (Guests.parse_query_journal receipt.Receipt.claim.Receipt.journal)
  in
  let* () =
    check "query.root"
      (if D.equal journal.Guests.root expected_root then Ok ()
       else Error "client: query ran against a different CLog root")
  in
  Event.emit ?query ~track:"verifier" "verifier.query.accept"
    ~attrs:
      [
        ("result", Jsonx.Num (float_of_int journal.Guests.result));
        ("matches", Jsonx.Num (float_of_int journal.Guests.matches));
      ];
  Ok journal

let verify_disclosure ~expected_root (d : Prover_service.disclosure) =
  let check name r = checked ~check:name r in
  let* () =
    check "disclosure.arity"
      (if List.length d.Prover_service.indices = List.length d.Prover_service.entries
       then Ok ()
       else Error "client: disclosure arity mismatch")
  in
  let* () =
    check "disclosure.indices"
      (if d.Prover_service.indices
          = Zkflow_merkle.Multiproof.indices d.Prover_service.proof
       then Ok ()
       else Error "client: disclosure indices do not match the proof")
  in
  let leaf_hashes =
    Array.of_list (List.map Clog.leaf_digest d.Prover_service.entries)
  in
  let* () =
    check "disclosure.proof"
      (if
         Zkflow_merkle.Multiproof.verify ~root:expected_root d.Prover_service.proof
           leaf_hashes
       then Ok ()
       else Error "client: disclosure does not authenticate against the CLog root")
  in
  Event.emit ~track:"verifier" "verifier.disclosure.accept"
    ~attrs:
      [ ("entries", Jsonx.Num (float_of_int (List.length d.Prover_service.entries))) ];
  Ok d.Prover_service.entries

let verify_flows ?query ~expected_root (f : Query.flows_result) =
  let check name r = checked ?query ~check:name r in
  let mask32 = 0xffffffff in
  let* () =
    check "flows.root"
      (if D.equal f.Query.root expected_root then Ok ()
       else Error "client: flows answered against a different CLog root")
  in
  let* () =
    check "flows.rows"
      (if f.Query.rows <> [] then Ok () else Error "client: flows result is empty")
  in
  let* () =
    check "flows.indices"
      (if
         List.map (fun r -> r.Query.index) f.Query.rows
         = Zkflow_merkle.Multiproof.indices f.Query.proof
       then Ok ()
       else Error "client: flows indices do not match the proof")
  in
  (* One proof authenticates every entry; the values and the total are
     then recomputed from the authenticated entries, never trusted. *)
  let leaf_hashes =
    Array.of_list (List.map (fun r -> Clog.leaf_digest r.Query.entry) f.Query.rows)
  in
  let* () =
    check "flows.proof"
      (if Zkflow_merkle.Multiproof.verify ~root:expected_root f.Query.proof leaf_hashes
       then Ok ()
       else Error "client: flows proof does not authenticate against the CLog root")
  in
  let metric_of (m : Zkflow_netflow.Record.metrics) =
    match f.Query.metric with
    | Guests.Packets -> m.Zkflow_netflow.Record.packets
    | Guests.Bytes -> m.Zkflow_netflow.Record.bytes
    | Guests.Hops -> m.Zkflow_netflow.Record.hop_count
    | Guests.Losses -> m.Zkflow_netflow.Record.losses
  in
  let* () =
    check "flows.values"
      (if
         List.for_all
           (fun r -> r.Query.value = metric_of r.Query.entry.Clog.metrics)
           f.Query.rows
       then Ok ()
       else Error "client: a flow value does not match its committed entry")
  in
  let* () =
    check "flows.total"
      (let sum =
         List.fold_left (fun acc r -> (acc + r.Query.value) land mask32) 0 f.Query.rows
       in
       if sum = f.Query.total then Ok ()
       else Error "client: flows total does not match the rows")
  in
  Event.emit ?query ~track:"verifier" "verifier.flows.accept"
    ~attrs:
      [
        ("flows", Jsonx.Num (float_of_int (List.length f.Query.rows)));
        ("total", Jsonx.Num (float_of_int f.Query.total));
        ( "helpers",
          Jsonx.Num (float_of_int (Zkflow_merkle.Multiproof.helper_count f.Query.proof)) );
      ];
  Ok f.Query.rows

let check_sla ?query ~expected_root receipt ~predicate =
  let* journal = verify_query ?query ~expected_root receipt in
  Ok (predicate ~result:journal.Guests.result ~matches:journal.Guests.matches)
