(** Dense binary Merkle trees over 32-byte digests.

    The tree over [n] leaves is padded to the next power of two with a
    distinguished empty-leaf digest, so roots are well-defined for any
    [n ≥ 0]. A build hashes only the nodes with at least one real leaf
    beneath them; every all-padding subtree takes its precomputed
    default ({!empty_root}), which is exactly what hashing it would
    give. Leaves are hashed with a leaf-domain tag before entering
    the tree, preventing leaf/node confusion attacks. This is the
    authenticated structure over CLog entries from Section 4.1 of the
    paper. *)

type t
(** An immutable Merkle tree retaining all levels (O(n) storage). *)

val next_pow2 : int -> int
(** Smallest power of two ≥ [max 1 n]. Raises [Invalid_argument] for
    [n > max_int / 2], where the doubling would overflow. *)

val leaf_hash : bytes -> Zkflow_hash.Digest32.t
(** [leaf_hash data] is SHA-256 of ["zkflow.lf.v1" ‖ data] (the 12-byte tag is word-aligned so zkVM guests can reproduce it). *)

val empty_leaf : Zkflow_hash.Digest32.t
(** The digest used for padding positions beyond the last real leaf. *)

val of_leaves : bytes array -> t
(** [of_leaves data] builds the tree over [Array.map leaf_hash data]. *)

val of_leaf_fn : int -> (int -> bytes) -> t
(** [of_leaf_fn n f] is [of_leaves (Array.init n f)] without the array:
    each leaf is hashed straight into its slot and not kept. [f] is
    called once per index, possibly from several domains at once, so it
    must be safe to call concurrently. Raises [Invalid_argument] when
    [n < 0]. *)

val of_leaf_hashes : Zkflow_hash.Digest32.t array -> t
(** Builds the tree over already-hashed leaves (e.g. recomputed inside
    the zkVM guest). *)

val permute : t -> int array -> t
(** [permute t perm] is the tree whose leaf [j] is leaf [perm.(j)] of
    [t] — a commitment to a reordering of the same leaves, built from
    [t]'s leaf slots without re-hashing them. Raises
    [Invalid_argument] when an index is out of range. *)

val empty_root : int -> Zkflow_hash.Digest32.t
(** [empty_root l] is the root of a height-[l] subtree whose leaves
    are all {!empty_leaf} ([empty_root 0 = empty_leaf]), for
    [0 ≤ l ≤ 62]. Raises [Invalid_argument] otherwise. *)

val root : t -> Zkflow_hash.Digest32.t
(** The Merkle root; the root of the empty tree is
    [Digest32.zero]-independent but fixed. *)

val size : t -> int
(** Number of real (unpadded) leaves. *)

val depth : t -> int
(** Height of the padded tree; 0 for trees of ≤ 1 leaf. *)

val leaf : t -> int -> Zkflow_hash.Digest32.t
(** [leaf t i] is the (hashed) leaf at index [i]. Raises
    [Invalid_argument] when out of range. *)

val prove : t -> int -> Proof.t
(** [prove t i] is the inclusion proof for leaf [i]. *)

val prover : t -> int -> Proof.t
(** [prover t] is {!prove} [t] with a private cache of sibling digests:
    proofs it returns share one [Digest32.t] per tree node, so the
    common path levels of many openings of one tree are stored once.
    The cache lives in the returned function, not in [t]; use one per
    proof being assembled. *)

val node : t -> level:int -> int -> Zkflow_hash.Digest32.t
(** [node t ~level i] is the digest at position [i] of the given level
    of the padded tree (level 0 = leaves, level [depth t] = root).
    Raises [Invalid_argument] when out of range. *)

val to_snapshot : t -> bytes
(** Serialize every node of the tree (leaf count plus the flat level
    buffer) so a restore is a copy, not a rebuild. The format carries
    no integrity protection of its own — wrap it in a checksummed
    container (checkpoint rows do). *)

val of_snapshot : bytes -> (t, string) result
(** Rebuild a tree from {!to_snapshot} output. Fails on truncation or
    a buffer whose length does not match its declared leaf count. *)

(** {2 Unsafe buffer access}

    For {!Incremental}, which maintains the same flat-buffer layout in
    place. *)

val unsafe_buffer : t -> bytes
(** The underlying level buffer, without copying. Callers must never
    mutate it — trees are shared. *)

val unsafe_of_buffer : size:int -> bytes -> t
(** Adopt [buf] (no copy) as the level buffer of a tree over [size]
    leaves. The caller warrants the interior slots are coherent and
    relinquishes ownership — the buffer must not be mutated afterwards.
    Raises [Invalid_argument] when the length does not match [size]. *)
