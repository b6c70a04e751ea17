(* FIPS 180-4 SHA-256. State and schedule words are int32: 32-bit
   wrap-around is free and ocamlopt keeps the hot-loop values unboxed;
   a native-int variant with explicit masking measured ~25 % slower. *)

(* One count per 64-byte block; covers every digest in the system since
   all hashing funnels through [compress]. *)
let m_compressions = Zkflow_obs.Metric.counter "sha256.compressions"

let k = [|
  0x428a2f98l; 0x71374491l; 0xb5c0fbcfl; 0xe9b5dba5l;
  0x3956c25bl; 0x59f111f1l; 0x923f82a4l; 0xab1c5ed5l;
  0xd807aa98l; 0x12835b01l; 0x243185bel; 0x550c7dc3l;
  0x72be5d74l; 0x80deb1fel; 0x9bdc06a7l; 0xc19bf174l;
  0xe49b69c1l; 0xefbe4786l; 0x0fc19dc6l; 0x240ca1ccl;
  0x2de92c6fl; 0x4a7484aal; 0x5cb0a9dcl; 0x76f988dal;
  0x983e5152l; 0xa831c66dl; 0xb00327c8l; 0xbf597fc7l;
  0xc6e00bf3l; 0xd5a79147l; 0x06ca6351l; 0x14292967l;
  0x27b70a85l; 0x2e1b2138l; 0x4d2c6dfcl; 0x53380d13l;
  0x650a7354l; 0x766a0abbl; 0x81c2c92el; 0x92722c85l;
  0xa2bfe8a1l; 0xa81a664bl; 0xc24b8b70l; 0xc76c51a3l;
  0xd192e819l; 0xd6990624l; 0xf40e3585l; 0x106aa070l;
  0x19a4c116l; 0x1e376c08l; 0x2748774cl; 0x34b0bcb5l;
  0x391c0cb3l; 0x4ed8aa4al; 0x5b9cca4fl; 0x682e6ff3l;
  0x748f82eel; 0x78a5636fl; 0x84c87814l; 0x8cc70208l;
  0x90befffal; 0xa4506cebl; 0xbef9a3f7l; 0xc67178f2l;
|]

type ctx = {
  h : int32 array;            (* 8 chaining words *)
  block : bytes;              (* 64-byte working block *)
  mutable fill : int;         (* bytes buffered in [block] *)
  mutable total : int64;      (* total message bytes absorbed *)
  mutable finalized : bool;
  w : int32 array;            (* 64-word message schedule, reused *)
}

let iv32 =
  [| 0x6a09e667l; 0xbb67ae85l; 0x3c6ef372l; 0xa54ff53al;
     0x510e527fl; 0x9b05688cl; 0x1f83d9abl; 0x5be0cd19l |]

let init () = {
  h = Array.copy iv32;
  block = Bytes.create 64;
  fill = 0;
  total = 0L;
  finalized = false;
  w = Array.make 64 0l;
}

let reset ctx =
  Array.blit iv32 0 ctx.h 0 8;
  ctx.fill <- 0;
  ctx.total <- 0L;
  ctx.finalized <- false

let rotr x n = Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))

(* Message schedule: load the 16 big-endian words of the block at
   [pos], then expand to 64. *)
let expand w src pos =
  for i = 0 to 15 do
    w.(i) <- Bytes.get_int32_be src (pos + (4 * i))
  done;
  for i = 16 to 63 do
    let s0 =
      Int32.logxor (rotr w.(i - 15) 7)
        (Int32.logxor (rotr w.(i - 15) 18) (Int32.shift_right_logical w.(i - 15) 3))
    and s1 =
      Int32.logxor (rotr w.(i - 2) 17)
        (Int32.logxor (rotr w.(i - 2) 19) (Int32.shift_right_logical w.(i - 2) 10))
    in
    w.(i) <- Int32.add (Int32.add w.(i - 16) s0) (Int32.add w.(i - 7) s1)
  done

(* The 64 rounds over an expanded schedule, folded into [h]. *)
let rounds h w =
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let s1 = Int32.logxor (rotr !e 6) (Int32.logxor (rotr !e 11) (rotr !e 25)) in
    let ch = Int32.logxor (Int32.logand !e !f) (Int32.logand (Int32.lognot !e) !g) in
    let t1 = Int32.add !hh (Int32.add s1 (Int32.add ch (Int32.add k.(i) w.(i)))) in
    let s0 = Int32.logxor (rotr !a 2) (Int32.logxor (rotr !a 13) (rotr !a 22)) in
    let maj =
      Int32.logxor (Int32.logand !a !b)
        (Int32.logxor (Int32.logand !a !c) (Int32.logand !b !c))
    in
    let t2 = Int32.add s0 maj in
    hh := !g;
    g := !f;
    f := !e;
    e := Int32.add !d t1;
    d := !c;
    c := !b;
    b := !a;
    a := Int32.add t1 t2
  done;
  h.(0) <- Int32.add h.(0) !a;
  h.(1) <- Int32.add h.(1) !b;
  h.(2) <- Int32.add h.(2) !c;
  h.(3) <- Int32.add h.(3) !d;
  h.(4) <- Int32.add h.(4) !e;
  h.(5) <- Int32.add h.(5) !f;
  h.(6) <- Int32.add h.(6) !g;
  h.(7) <- Int32.add h.(7) !hh

let compress ctx src pos =
  Zkflow_obs.Metric.add m_compressions 1;
  expand ctx.w src pos;
  rounds ctx.h ctx.w

let check_live ctx =
  if ctx.finalized then invalid_arg "Sha256: context already finalized"

let update_sub ctx b ~pos ~len =
  check_live ctx;
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Sha256.update_sub: out of bounds";
  ctx.total <- Int64.add ctx.total (Int64.of_int len);
  let pos = ref pos and remaining = ref len in
  (* Top up a partially filled block first. *)
  if ctx.fill > 0 then begin
    let take = min !remaining (64 - ctx.fill) in
    Bytes.blit b !pos ctx.block ctx.fill take;
    ctx.fill <- ctx.fill + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.fill = 64 then begin
      compress ctx ctx.block 0;
      ctx.fill <- 0
    end
  end;
  while !remaining >= 64 do
    compress ctx b !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit b !pos ctx.block ctx.fill !remaining;
    ctx.fill <- ctx.fill + !remaining
  end

let update ctx b = update_sub ctx b ~pos:0 ~len:(Bytes.length b)
let update_string ctx s = update ctx (Bytes.unsafe_of_string s)

(* Padding: 0x80, zeros to 56 mod 64, then the 64-bit big-endian bit
   length — written into [ctx.block] itself, so finishing a hash
   allocates nothing. *)
let finalize_into ctx dst off =
  check_live ctx;
  if off < 0 || off + 32 > Bytes.length dst then
    invalid_arg "Sha256.finalize_into: out of bounds";
  let blk = ctx.block and fill = ctx.fill in
  Bytes.set blk fill '\x80';
  if fill >= 56 then begin
    Bytes.fill blk (fill + 1) (63 - fill) '\000';
    compress ctx blk 0;
    Bytes.fill blk 0 56 '\000'
  end
  else Bytes.fill blk (fill + 1) (55 - fill) '\000';
  Bytes.set_int64_be blk 56 (Int64.mul ctx.total 8L);
  compress ctx blk 0;
  ctx.fill <- 0;
  ctx.finalized <- true;
  for i = 0 to 7 do
    Bytes.set_int32_be dst (off + (4 * i)) ctx.h.(i)
  done

let finalize ctx =
  let out = Bytes.create 32 in
  finalize_into ctx out 0;
  out

let digest b =
  let ctx = init () in
  update ctx b;
  finalize ctx

let digest_string s = digest (Bytes.unsafe_of_string s)

let digest_sub b ~pos ~len =
  let ctx = init () in
  update_sub ctx b ~pos ~len;
  finalize ctx

let digest_concat parts =
  let ctx = init () in
  List.iter (update ctx) parts;
  finalize ctx

(* A 64-byte message is one data block plus a padding block that never
   changes (0x80, zeros, bit length 512), so its schedule is expanded
   once and every pair hash runs the rounds over it directly. *)
let pad64_schedule =
  let blk = Bytes.make 64 '\000' in
  Bytes.set blk 0 '\x80';
  Bytes.set_int64_be blk 56 512L;
  let w = Array.make 64 0l in
  expand w blk 0;
  w

let hash_pairs src ~src_off dst ~dst_off n =
  if n < 0 || src_off < 0 || dst_off < 0
     || src_off + (64 * n) > Bytes.length src
     || dst_off + (32 * n) > Bytes.length dst
  then invalid_arg "Sha256.hash_pairs: out of bounds";
  let h = Array.make 8 0l and w = Array.make 64 0l in
  for i = 0 to n - 1 do
    Array.blit iv32 0 h 0 8;
    expand w src (src_off + (64 * i));
    rounds h w;
    rounds h pad64_schedule;
    let o = dst_off + (32 * i) in
    for j = 0 to 7 do
      Bytes.set_int32_be dst (o + (4 * j)) h.(j)
    done
  done;
  Zkflow_obs.Metric.add m_compressions (2 * n)

let mask32 = 0xffffffff
let iv = Array.map (fun w -> Int32.to_int w land mask32) iv32

let compress_words state block =
  if Array.length state <> 8 then invalid_arg "Sha256.compress_words: state";
  if Array.length block <> 16 then invalid_arg "Sha256.compress_words: block";
  (* Reuse the int32 engine: load the state and block, run one round. *)
  let ctx = init () in
  Array.iteri (fun i s -> ctx.h.(i) <- Int32.of_int (s land mask32)) state;
  let blk = Bytes.create 64 in
  Array.iteri (fun i w -> Bytes.set_int32_be blk (4 * i) (Int32.of_int (w land mask32))) block;
  compress ctx blk 0;
  Array.map (fun w -> Int32.to_int w land mask32) ctx.h
