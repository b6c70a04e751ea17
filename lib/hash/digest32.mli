(** A 32-byte digest value with total ordering, equality and
    serialization helpers. Wraps the raw bytes so digests cannot be
    confused with arbitrary byte strings in APIs. *)

type t
(** An immutable 32-byte digest. *)

val of_bytes : bytes -> t
(** [of_bytes b] wraps [b]. Raises [Invalid_argument] unless
    [Bytes.length b = 32]. The bytes are copied. *)

val of_sub : bytes -> int -> t
(** [of_sub b off] is a copy of the 32 bytes of [b] at [off], in one
    copy. Raises [Invalid_argument] when they do not fit. *)

val to_bytes : t -> bytes
(** [to_bytes d] is a fresh copy of the raw digest bytes. *)

val unsafe_to_bytes : t -> bytes
(** [unsafe_to_bytes d] exposes the underlying buffer without copying.
    Callers must not mutate it; use in hashing hot paths only. *)

val of_hex : string -> t
(** [of_hex s] parses a 64-character hex string. Raises
    [Invalid_argument] on malformed input. *)

val to_hex : t -> string
(** [to_hex d] is the lowercase hex rendering. *)

val equal : t -> t -> bool
(** Constant-time equality. *)

val compare : t -> t -> int
(** Lexicographic byte order. *)

val zero : t
(** The all-zero digest; used as the empty-tree sentinel. *)

val hash_bytes : bytes -> t
(** [hash_bytes b] is SHA-256 of [b]. *)

val hash_string : string -> t
(** [hash_string s] is SHA-256 of the bytes of [s]. *)

val combine : t -> t -> t
(** [combine l r] is SHA-256 of the 64-byte concatenation — the Merkle
    inner-node rule used everywhere in zkflow. *)

val short : t -> string
(** [short d] is the first 8 hex characters, for logs. *)

val pp : Format.formatter -> t -> unit
(** Prints the full hex digest. *)
