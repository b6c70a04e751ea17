module D = Zkflow_hash.Digest32
module Sha256 = Zkflow_hash.Sha256
module Pool = Zkflow_parallel.Pool
module Obs = Zkflow_obs

(* Interior + leaf hashes; [sha256.compressions] counts blocks, this
   counts Merkle nodes, so the ratio exposes padding overhead. *)
let m_nodes = Obs.Metric.counter "merkle.nodes_hashed"

(* All levels live in one flat buffer of 32-byte slots: the padded leaf
   level first, then each parent level, ending with the root. For a
   padded size p that is 2p − 1 slots; keeping digests unboxed matters
   because the proof layer builds trees over millions of trace rows. *)
type t = {
  buf : Bytes.t;
  level_off : int array; (* slot offset of each level; length depth+1 *)
  size : int;            (* real (unpadded) leaf count *)
  depth : int;
}

let leaf_domain = Bytes.of_string "zkflow.lf.v1"

let leaf_hash data =
  D.of_bytes (Sha256.digest_concat [ leaf_domain; data ])

let empty_leaf = D.hash_string "zkflow.empty-leaf"

(* empty_roots.(l): root of a height-l subtree whose leaves are all the
   padding digest. Such a subtree hashes to exactly this value, so a
   build copies it instead of hashing, and [Incremental] uses it for
   the new right half when it doubles. Built eagerly because pool
   workers read it, and a lazy value must not be forced from two
   domains at once. *)
let empty_roots =
  let a = Array.make 63 empty_leaf in
  for l = 1 to 62 do
    a.(l) <- D.combine a.(l - 1) a.(l - 1)
  done;
  a

let empty_root level =
  if level < 0 || level >= Array.length empty_roots then
    invalid_arg "Tree.empty_root: level out of range";
  empty_roots.(level)

let next_pow2 n =
  if n > max_int / 2 then
    (* doubling past max_int/2 wraps negative and loops forever *)
    invalid_arg "Tree.next_pow2: leaf count exceeds max_int / 2";
  let rec go k = if k >= n then k else go (k * 2) in
  if n <= 1 then 1 else go 1

let log2 p =
  let rec go k v = if v = 1 then k else go (k + 1) (v / 2) in
  go 0 p

let level_offsets padded depth =
  let level_off = Array.make (depth + 1) 0 in
  let off = ref 0 and width = ref padded in
  for level = 0 to depth do
    level_off.(level) <- !off;
    off := !off + !width;
    width := !width / 2
  done;
  level_off

let fill_slots buf ~off ~lo ~hi d =
  let d = D.unsafe_to_bytes d in
  for i = lo to hi - 1 do
    Bytes.blit d 0 buf (32 * (off + i)) 32
  done

(* With [real] leaves at level 0, a level holds [real] non-padding
   slots and its parent level ceil(real/2); only those parents are
   hashed, each from the 64 contiguous bytes of its two children. The
   rest of every level is all-padding and takes its default. Workers
   write disjoint parent slots, so a level is hashed in parallel
   chunks; small top levels fall under the chunk floor and run
   sequentially through the same code path. *)
let build_levels t =
  let buf = t.buf and level_off = t.level_off in
  let width level = 1 lsl (t.depth - level) in
  fill_slots buf ~off:0 ~lo:t.size ~hi:(width 0) empty_leaf;
  let real = ref t.size in
  for level = 0 to t.depth - 1 do
    let src = level_off.(level) and dst = level_off.(level + 1) in
    let parents = (!real + 1) / 2 in
    Pool.parallel_for ~min_chunk:1024 parents (fun lo hi ->
        Sha256.hash_pairs buf ~src_off:(32 * (src + (2 * lo))) buf
          ~dst_off:(32 * (dst + lo)) (hi - lo);
        Obs.Metric.add m_nodes (hi - lo));
    fill_slots buf ~off:dst ~lo:parents ~hi:(width (level + 1)) empty_roots.(level + 1);
    real := parents
  done

(* Allocate a tree over [n] leaves, let [fill] write the [n] real leaf
   slots, then build every level above them. *)
let build n fill =
  let t0 = Obs.Span.start () in
  let padded = next_pow2 n in
  let depth = log2 padded in
  let t =
    {
      buf = Bytes.create (32 * ((2 * padded) - 1));
      level_off = level_offsets padded depth;
      size = n;
      depth;
    }
  in
  fill t.buf;
  build_levels t;
  if t0 <> 0 then Obs.Span.finish "merkle.build" ~args:[ ("leaves", n) ] t0;
  t

let of_leaf_hashes hs =
  build (Array.length hs) (fun buf ->
      Array.iteri (fun i d -> Bytes.blit (D.unsafe_to_bytes d) 0 buf (32 * i) 32) hs)

(* Same bytes as [leaf_hash]: domain tag then payload, hashed straight
   into the leaf slot with one reused ctx per chunk. *)
let of_leaf_fn n f =
  if n < 0 then invalid_arg "Tree.of_leaf_fn: negative leaf count";
  build n (fun buf ->
      Pool.parallel_for ~min_chunk:512 n (fun lo hi ->
          let ctx = Sha256.init () in
          for i = lo to hi - 1 do
            Sha256.reset ctx;
            Sha256.update ctx leaf_domain;
            Sha256.update ctx (f i);
            Sha256.finalize_into ctx buf (32 * i)
          done;
          Obs.Metric.add m_nodes (hi - lo)))

let of_leaves data = of_leaf_fn (Array.length data) (Array.get data)

let permute t perm =
  build (Array.length perm) (fun buf ->
      Array.iteri
        (fun j i ->
          if i < 0 || i >= t.size then invalid_arg "Tree.permute: index out of range";
          Bytes.blit t.buf (32 * i) buf (32 * j) 32)
        perm)

let read_slot t slot = D.of_sub t.buf (32 * slot)
let root t = read_slot t t.level_off.(t.depth)
let size t = t.size
let depth t = t.depth

let node t ~level i =
  if level < 0 || level > t.depth then invalid_arg "Tree.node: level out of range";
  let width = 1 lsl (t.depth - level) in
  if i < 0 || i >= width then invalid_arg "Tree.node: index out of range";
  read_slot t (t.level_off.(level) + i)

let leaf t i =
  if i < 0 || i >= t.size then invalid_arg "Tree.leaf: index out of range";
  read_slot t i

let path t sibling i =
  if i < 0 || i >= max 1 t.size then invalid_arg "Tree.prove: index out of range";
  let siblings = Array.make t.depth empty_leaf in
  let idx = ref i in
  for level = 0 to t.depth - 1 do
    siblings.(level) <- sibling (t.level_off.(level) + (!idx lxor 1));
    idx := !idx lsr 1
  done;
  { Proof.index = i; siblings }

let prove t i = path t (read_slot t) i

(* The cache lives in the closure, never in [t]: trees are shared
   across domains and must stay immutable. *)
let prover t =
  let seen = Hashtbl.create 64 in
  let sibling slot =
    match Hashtbl.find_opt seen slot with
    | Some d -> d
    | None ->
      let d = read_slot t slot in
      Hashtbl.add seen slot d;
      d
  in
  path t sibling

(* ---- node snapshots ----

   The whole flat buffer, varint-size-prefixed. Interior hashes are
   persisted verbatim so a restore is a memcpy, not a rebuild; the
   consumer (checkpoint rows) already guards the bytes with a
   checksum, so the only validation needed here is structural. *)

let to_snapshot t =
  let buf = Buffer.create (Bytes.length t.buf + 8) in
  Zkflow_util.Varint.write buf t.size;
  Buffer.add_bytes buf t.buf;
  Buffer.to_bytes buf

let unsafe_buffer t = t.buf

let unsafe_of_buffer ~size buf =
  if size < 0 then invalid_arg "Tree.unsafe_of_buffer: negative size";
  let padded = next_pow2 size in
  let depth = log2 padded in
  if Bytes.length buf <> 32 * ((2 * padded) - 1) then
    invalid_arg "Tree.unsafe_of_buffer: buffer does not match size";
  { buf; level_off = level_offsets padded depth; size; depth }

let of_snapshot b =
  match Zkflow_util.Varint.read b 0 with
  | exception _ -> Error "tree snapshot: truncated size"
  | size, off ->
    if size < 0 || size > max_int / 2 then Error "tree snapshot: implausible size"
    else begin
      let padded = next_pow2 size in
      let expect = 32 * ((2 * padded) - 1) in
      if Bytes.length b - off <> expect then Error "tree snapshot: length mismatch"
      else Ok (unsafe_of_buffer ~size (Bytes.sub b off expect))
    end
