module Machine = Zkflow_zkvm.Machine
module Program = Zkflow_zkvm.Program
module Trace = Zkflow_zkvm.Trace
module Tree = Zkflow_merkle.Tree
module D = Zkflow_hash.Digest32
module Fp2 = Zkflow_field.Fp2
module Obs = Zkflow_obs

(* An opening function per tree for one proof: leaves are re-encoded
   at the few opened indices instead of being kept for the whole round,
   and [Tree.prover] shares sibling digests across the openings. *)
let opener tree leaf =
  let prove = Tree.prover tree in
  fun i -> { Receipt.index = i; leaf = leaf i; path = prove i }

(* Phase-1 commitments depend only on the guest image and the traced
   run, not on the proof parameters or the Fiat–Shamir transcript — so
   proving the same run twice (the aggregate/query double-prove of a
   round, chaos re-proves after a kill) can reuse the trees wholesale.
   One slot is enough: rounds prove back-to-back over one run. Keyed on
   physical identity of the trace arrays ([==]) plus the image id, so a
   recomputed-but-equal trace misses rather than risking a stale hit. *)
type commit_memo = {
  memo_image : D.t;
  memo_rows : Trace.row array;
  memo_memlog : Trace.mem_entry array;
  rows_tree : Tree.t;
  time_tree : Tree.t;
  sorted_log : Trace.mem_entry array;
  sorted_tree : Tree.t;
  jacc_heads : bytes; (* journal-chain head after each row, 32-byte stride *)
  jacc_tree : Tree.t;
}

let commit_cache : commit_memo option Atomic.t = Atomic.make None
let clear_commit_cache () = Atomic.set commit_cache None
let m_hits = Obs.Metric.counter "zkproof.commit_cache.hits"
let m_misses = Obs.Metric.counter "zkproof.commit_cache.misses"
let m_leaf_reused = Obs.Metric.counter "zkproof.leaf_hashes_reused"

let jacc_leaf heads i = Bytes.sub heads (32 * i) 32

let build_commit_memo program (claim : Receipt.claim) rows memlog =
  let n_rows = Array.length rows in
  let rows_tree = Tree.of_leaf_fn n_rows (fun i -> Trace.encode_row rows.(i)) in
  let time_tree =
    Tree.of_leaf_fn (Array.length memlog) (fun i -> Trace.encode_mem memlog.(i))
  in
  (* The sorted log is a permutation of the time-ordered one, so its
     leaf hashes are the time tree's leaf slots, permuted — no second
     encode or hash pass over the access log. *)
  let sorted_log, perm = Memcheck.sort_with_perm memlog in
  let sorted_tree = Tree.permute time_tree perm in
  Obs.Metric.add m_leaf_reused (Array.length perm);
  let jacc_heads = Bytes.create (32 * n_rows) in
  let chain = ref Zkflow_hash.Chain.genesis in
  Array.iteri
    (fun i row ->
      chain := Checker.jacc_step ~program !chain row;
      Bytes.blit (D.unsafe_to_bytes (Zkflow_hash.Chain.head !chain)) 0 jacc_heads (32 * i) 32)
    rows;
  let jacc_tree = Tree.of_leaf_fn n_rows (jacc_leaf jacc_heads) in
  {
    memo_image = claim.Receipt.image_id;
    memo_rows = rows;
    memo_memlog = memlog;
    rows_tree;
    time_tree;
    sorted_log;
    sorted_tree;
    jacc_heads;
    jacc_tree;
  }

let prove_result ?(params = Params.default) program (run : Machine.result) =
  if Array.length run.Machine.rows = 0 then
    Error "prove: run has no trace (execute with ~trace:true)"
  else if run.Machine.exit_code <> 0 then
    Error
      (Printf.sprintf
         "prove: guest exited with code %d (in-guest integrity check failed); refusing to attest"
         run.Machine.exit_code)
  else begin
    let claim =
      {
        Receipt.image_id = Program.image_id program;
        exit_code = run.Machine.exit_code;
        journal = run.Machine.journal;
      }
    in
    let rows = run.Machine.rows and memlog = run.Machine.memlog in
    let n_rows = Array.length rows and n_mem = Array.length memlog in
    let t_prove = Obs.Span.start () in
    (* Phase 1 commitments — memoised across prove calls over the same
       run (see [commit_memo] above). *)
    let t_commit = Obs.Span.start () in
    let memo, cached =
      match Atomic.get commit_cache with
      | Some m
        when m.memo_rows == rows && m.memo_memlog == memlog
             && D.equal m.memo_image claim.Receipt.image_id ->
        Obs.Metric.add m_hits 1;
        (m, 1)
      | _ ->
        Obs.Metric.add m_misses 1;
        (* Drop the previous round's trees before building this one's,
           so two memos are never reachable at once. *)
        clear_commit_cache ();
        let m = build_commit_memo program claim rows memlog in
        Atomic.set commit_cache (Some m);
        (m, 0)
    in
    let { rows_tree; time_tree; sorted_log; sorted_tree; jacc_heads; jacc_tree; _ } =
      memo
    in
    if t_commit <> 0 then
      Obs.Span.finish "zkproof.trace_commit"
        ~args:[ ("rows", n_rows); ("mem", n_mem); ("cached", cached) ]
        t_commit;
    (* Phase 2 (inside the transcript callback so ordering is right). *)
    let z_commit = ref None in
    let commit_z ~alpha ~beta =
      let zt = Memcheck.products ~alpha ~beta memlog in
      let zs = Memcheck.products ~alpha ~beta sorted_log in
      let z_tree z = Tree.of_leaf_fn n_mem (fun i -> Memcheck.encode_fp2 z.(i)) in
      let tt = z_tree zt and ts = z_tree zs in
      z_commit := Some ((tt, zt), (ts, zs));
      (Tree.root tt, Tree.root ts)
    in
    let t_fs = Obs.Span.start () in
    let challenges, root_z_time, root_z_sorted =
      Fs.derive ~claim ~queries:params.Params.queries ~n_rows ~n_mem
        ~root_rows:(Tree.root rows_tree) ~root_time:(Tree.root time_tree)
        ~root_sorted:(Tree.root sorted_tree) ~root_jacc:(Tree.root jacc_tree)
        ~commit_z
    in
    if t_fs <> 0 then Obs.Span.finish "zkproof.fs" t_fs;
    let { Fs.step_idx; sorted_idx; zt_idx; zs_idx; _ } = challenges in
    let (z_time_tree, z_time), (z_sorted_tree, z_sorted) = Option.get !z_commit in
    (* Openings. *)
    let t_open = Obs.Span.start () in
    let open_row = opener rows_tree (fun i -> Trace.encode_row rows.(i)) in
    let open_time = opener time_tree (fun i -> Trace.encode_mem memlog.(i)) in
    let open_sorted = opener sorted_tree (fun j -> Trace.encode_mem sorted_log.(j)) in
    let open_jacc = opener jacc_tree (jacc_leaf jacc_heads) in
    let open_z tree z = opener tree (fun i -> Memcheck.encode_fp2 z.(i)) in
    let open_z_time = open_z z_time_tree z_time in
    let open_z_sorted = open_z z_sorted_tree z_sorted in
    let steps =
      Array.map
        (fun i ->
          let row = rows.(i) in
          {
            Receipt.row = open_row i;
            next = open_row (i + 1);
            mem = Array.init row.Trace.mem_count (fun k -> open_time (row.Trace.mem_pos + k));
            jacc = open_jacc i;
            jacc_next = open_jacc (i + 1);
          })
        step_idx
    in
    let sorteds =
      Array.map
        (fun j -> { Receipt.first = open_sorted j; second = open_sorted (j + 1) })
        sorted_idx
    in
    let z_checks open_z open_log idx =
      Array.map
        (fun j ->
          { Receipt.z = open_z j; z_next = open_z (j + 1); entry_next = open_log (j + 1) })
        idx
    in
    let zs_time = z_checks open_z_time open_time zt_idx in
    let zs_sorted = z_checks open_z_sorted open_sorted zs_idx in
    let boundary =
      {
        Receipt.row0 = open_row 0;
        last_row = open_row (n_rows - 1);
        jacc0 = open_jacc 0;
        jacc_last = open_jacc (n_rows - 1);
        time0 = open_time 0;
        sorted0 = open_sorted 0;
        z_time0 = open_z_time 0;
        z_sorted0 = open_z_sorted 0;
        z_time_last = open_z_time (n_mem - 1);
        z_sorted_last = open_z_sorted (n_mem - 1);
      }
    in
    if t_open <> 0 then Obs.Span.finish "zkproof.openings" t_open;
    if t_prove <> 0 then
      Obs.Span.finish "zkproof.prove" ~args:[ ("rows", n_rows) ] t_prove;
    Ok
      {
        Receipt.claim;
        seal =
          {
            Receipt.params;
            n_rows;
            n_mem;
            root_rows = Tree.root rows_tree;
            root_time = Tree.root time_tree;
            root_sorted = Tree.root sorted_tree;
            root_jacc = Tree.root jacc_tree;
            root_z_time;
            root_z_sorted;
            steps;
            sorteds;
            zs_time;
            zs_sorted;
            boundary;
          };
      }
  end

let prove ?params program ~input =
  match Machine.run ~trace:true program ~input with
  | exception Machine.Trap { cycle; pc; reason } ->
    Error (Printf.sprintf "prove: guest trapped at cycle %d pc %d: %s" cycle pc reason)
  | run -> (
    match prove_result ?params program run with
    | Ok receipt -> Ok (receipt, run)
    | Error e -> Error e)
