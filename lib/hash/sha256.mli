(** SHA-256 (FIPS 180-4), implemented from scratch.

    This is the only cryptographic hash in zkflow; it backs log
    commitments, Merkle trees, Fiat–Shamir transcripts and the zkVM's
    SHA accelerator ecall (mirroring RISC Zero's SHA-256 precompile). *)

type ctx
(** Streaming hash context. *)

val init : unit -> ctx
(** [init ()] is a fresh context. *)

val reset : ctx -> unit
(** [reset ctx] returns [ctx] to the freshly-initialised state
    (including after [finalize]), so hot loops can hash many messages
    without reallocating the context. *)

val update : ctx -> bytes -> unit
(** [update ctx b] absorbs all of [b]. *)

val update_sub : ctx -> bytes -> pos:int -> len:int -> unit
(** [update_sub ctx b ~pos ~len] absorbs [len] bytes of [b] starting at
    [pos]. *)

val update_string : ctx -> string -> unit
(** [update_string ctx s] absorbs the bytes of [s]. *)

val finalize : ctx -> bytes
(** [finalize ctx] pads, produces the 32-byte digest and invalidates
    [ctx]: further [update]/[finalize] calls raise [Invalid_argument]. *)

val finalize_into : ctx -> bytes -> int -> unit
(** [finalize_into ctx dst off] is {!finalize} writing the digest to
    [dst.[off .. off+31]] instead of a fresh buffer; the padding is
    built in the context's own block, so nothing is allocated. Raises
    [Invalid_argument] when the 32 bytes do not fit in [dst]. *)

val digest : bytes -> bytes
(** [digest b] is the one-shot 32-byte SHA-256 of [b]. *)

val digest_string : string -> bytes
(** [digest_string s] is the one-shot digest of the bytes of [s]. *)

val digest_sub : bytes -> pos:int -> len:int -> bytes
(** [digest_sub b ~pos ~len] hashes a slice without copying it. *)

val digest_concat : bytes list -> bytes
(** [digest_concat parts] hashes the concatenation of [parts] without
    materialising it. *)

val hash_pairs : bytes -> src_off:int -> bytes -> dst_off:int -> int -> unit
(** [hash_pairs src ~src_off dst ~dst_off n] writes, for each
    [i < n], the SHA-256 of the 64 bytes at [src_off + 64i] to the 32
    bytes at [dst_off + 32i] — the Merkle parent rule over [n]
    consecutive child pairs, hashed in place. The constant padding
    block's schedule is shared, and nothing is allocated per pair. The
    two ranges must not overlap. Raises [Invalid_argument] when either
    range is out of bounds or [n < 0]. *)

val iv : int array
(** The initial 8-word chaining state, as non-negative 32-bit ints. *)

val compress_words : int array -> int array -> int array
(** [compress_words state block] is one raw compression step: [state]
    is 8 words, [block] 16 words, both as non-negative 32-bit ints; the
    result is the new 8-word state. This is the primitive behind the
    zkVM's SHA accelerator ecall — callers are responsible for padding.
    Raises [Invalid_argument] on wrong shapes. *)
