open Zkflow_hash

let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let hex = Zkflow_util.Hexcodec.encode

(* ---- SHA-256: FIPS / NIST CAVP vectors ---- *)

let sha_hex s = hex (Sha256.digest_string s)

let test_sha_empty () =
  check_string "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (sha_hex "")

let test_sha_abc () =
  check_string "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (sha_hex "abc")

let test_sha_448bit () =
  check_string "two-block boundary"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (sha_hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let test_sha_896bit () =
  check_string "long vector"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
    (sha_hex
       "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
        ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")

let test_sha_million_a () =
  let ctx = Sha256.init () in
  let chunk = Bytes.make 10_000 'a' in
  for _ = 1 to 100 do
    Sha256.update ctx chunk
  done;
  check_string "1M x 'a'"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (hex (Sha256.finalize ctx))

let test_sha_streaming_equals_oneshot () =
  let msg = Bytes.init 333 (fun i -> Char.chr (i land 0xff)) in
  let ctx = Sha256.init () in
  (* Deliberately awkward split points around the 64-byte block size. *)
  Sha256.update_sub ctx msg ~pos:0 ~len:1;
  Sha256.update_sub ctx msg ~pos:1 ~len:63;
  Sha256.update_sub ctx msg ~pos:64 ~len:64;
  Sha256.update_sub ctx msg ~pos:128 ~len:100;
  Sha256.update_sub ctx msg ~pos:228 ~len:105;
  check_string "streaming" (hex (Sha256.digest msg)) (hex (Sha256.finalize ctx))

let test_sha_finalize_once () =
  let ctx = Sha256.init () in
  ignore (Sha256.finalize ctx);
  Alcotest.check_raises "reuse rejected"
    (Invalid_argument "Sha256: context already finalized") (fun () ->
      ignore (Sha256.finalize ctx))

let test_sha_update_sub_bounds () =
  let ctx = Sha256.init () in
  Alcotest.check_raises "oob"
    (Invalid_argument "Sha256.update_sub: out of bounds") (fun () ->
      Sha256.update_sub ctx (Bytes.create 4) ~pos:2 ~len:3)

let test_sha_digest_concat () =
  let parts = [ Bytes.of_string "ab"; Bytes.of_string "c" ] in
  check_string "concat" (sha_hex "abc") (hex (Sha256.digest_concat parts))

let test_sha_finalize_into () =
  (* Every length 0..200 crosses the 55/56 and 63/64 padding
     boundaries of one and two blocks; the digest lands at an odd
     offset and the bytes around it stay untouched. *)
  let msg = Bytes.init 200 (fun i -> Char.chr ((i * 7) land 0xff)) in
  for len = 0 to 200 do
    let ctx = Sha256.init () in
    Sha256.update_sub ctx msg ~pos:0 ~len;
    let dst = Bytes.make 40 '#' in
    Sha256.finalize_into ctx dst 5;
    let tag = Printf.sprintf "len=%d" len in
    check_string tag (hex (Sha256.digest_sub msg ~pos:0 ~len)) (hex (Bytes.sub dst 5 32));
    check_string (tag ^ " prefix") "#####" (Bytes.sub_string dst 0 5);
    check_string (tag ^ " suffix") "###" (Bytes.sub_string dst 37 3);
    Alcotest.check_raises (tag ^ " once")
      (Invalid_argument "Sha256: context already finalized") (fun () ->
        Sha256.finalize_into ctx dst 0)
  done;
  Alcotest.check_raises "oob" (Invalid_argument "Sha256.finalize_into: out of bounds")
    (fun () -> Sha256.finalize_into (Sha256.init ()) (Bytes.create 32) 1)

let prop_hash_pairs =
  QCheck.Test.make ~name:"hash_pairs = digest of each 64-byte pair" ~count:100
    QCheck.(pair (int_range 0 6) (string_of_size (Gen.return (64 * 6 + 3))))
    (fun (n, s) ->
      let src = Bytes.of_string s in
      let dst = Bytes.make ((32 * n) + 7) '#' in
      Sha256.hash_pairs src ~src_off:3 dst ~dst_off:7 n;
      Bytes.sub_string dst 0 7 = "#######"
      && List.for_all
           (fun i ->
             Bytes.equal
               (Sha256.digest_sub src ~pos:(3 + (64 * i)) ~len:64)
               (Bytes.sub dst (7 + (32 * i)) 32))
           (List.init n Fun.id))

let test_hash_pairs_bounds () =
  Alcotest.check_raises "src" (Invalid_argument "Sha256.hash_pairs: out of bounds")
    (fun () -> Sha256.hash_pairs (Bytes.create 127) ~src_off:0 (Bytes.create 64) ~dst_off:0 2);
  Alcotest.check_raises "dst" (Invalid_argument "Sha256.hash_pairs: out of bounds")
    (fun () -> Sha256.hash_pairs (Bytes.create 128) ~src_off:0 (Bytes.create 63) ~dst_off:0 2)

let prop_sha_streaming =
  QCheck.Test.make ~name:"arbitrary split = one-shot" ~count:100
    QCheck.(pair (string_of_size Gen.(0 -- 300)) small_nat)
    (fun (s, cut) ->
      let b = Bytes.of_string s in
      let n = Bytes.length b in
      let cut = if n = 0 then 0 else cut mod (n + 1) in
      let ctx = Sha256.init () in
      Sha256.update_sub ctx b ~pos:0 ~len:cut;
      Sha256.update_sub ctx b ~pos:cut ~len:(n - cut);
      Bytes.equal (Sha256.finalize ctx) (Sha256.digest b))

(* ---- HMAC-SHA256: RFC 4231 vectors ---- *)

let test_hmac_rfc4231_case1 () =
  let key = Bytes.make 20 '\x0b' in
  check_string "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (hex (Hmac.mac ~key (Bytes.of_string "Hi There")))

let test_hmac_rfc4231_case2 () =
  let key = Bytes.of_string "Jefe" in
  check_string "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (hex (Hmac.mac ~key (Bytes.of_string "what do ya want for nothing?")))

let test_hmac_rfc4231_case3 () =
  let key = Bytes.make 20 '\xaa' in
  let msg = Bytes.make 50 '\xdd' in
  check_string "case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (hex (Hmac.mac ~key msg))

let test_hmac_rfc4231_case6_long_key () =
  let key = Bytes.make 131 '\xaa' in
  check_string "case 6 (key > block)"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (hex
       (Hmac.mac ~key
          (Bytes.of_string "Test Using Larger Than Block-Size Key - Hash Key First")))

let test_hmac_verify () =
  let key = Bytes.of_string "k" and msg = Bytes.of_string "m" in
  let tag = Hmac.mac ~key msg in
  check_bool "accepts" true (Hmac.verify ~key msg ~tag);
  let bad = Bytes.copy tag in
  Bytes.set bad 0 (Char.chr (Char.code (Bytes.get bad 0) lxor 1));
  check_bool "rejects flipped bit" false (Hmac.verify ~key msg ~tag:bad);
  check_bool "rejects wrong key" false
    (Hmac.verify ~key:(Bytes.of_string "K") msg ~tag)

let test_hmac_mac_concat () =
  let key = Bytes.of_string "key" in
  let whole = Hmac.mac ~key (Bytes.of_string "ab") in
  let parts = Hmac.mac_concat ~key [ Bytes.of_string "a"; Bytes.of_string "b" ] in
  check_string "concat" (hex whole) (hex parts)

let test_hmac_expand () =
  let key = Bytes.of_string "seed" in
  let a = Hmac.expand ~key ~info:"ctx" 100 in
  let b = Hmac.expand ~key ~info:"ctx" 100 in
  check_string "deterministic" (hex a) (hex b);
  Alcotest.(check int) "length" 100 (Bytes.length a);
  let c = Hmac.expand ~key ~info:"other" 100 in
  check_bool "info separates" false (Bytes.equal a c);
  (* Prefix property of counter-mode expansion. *)
  let short = Hmac.expand ~key ~info:"ctx" 32 in
  check_string "prefix" (hex short) (hex (Bytes.sub a 0 32))

(* ---- Digest32 ---- *)

let test_digest_of_bytes_copy () =
  let raw = Bytes.make 32 'x' in
  let d = Digest32.of_bytes raw in
  Bytes.set raw 0 'y';
  check_string "copied on construction" (String.make 64 '7' |> fun _ -> Digest32.to_hex d)
    (Digest32.to_hex (Digest32.of_bytes (Bytes.make 32 'x')))

let test_digest_wrong_len () =
  Alcotest.check_raises "31 bytes"
    (Invalid_argument "Digest32.of_bytes: need 32 bytes") (fun () ->
      ignore (Digest32.of_bytes (Bytes.create 31)))

let test_digest_hex_roundtrip () =
  let d = Digest32.hash_string "hello" in
  check_bool "roundtrip" true (Digest32.equal d (Digest32.of_hex (Digest32.to_hex d)))

let test_digest_combine_is_sha_of_concat () =
  let l = Digest32.hash_string "l" and r = Digest32.hash_string "r" in
  let expected =
    Sha256.digest_concat [ Digest32.to_bytes l; Digest32.to_bytes r ]
  in
  check_string "combine" (hex expected) (Digest32.to_hex (Digest32.combine l r))

let test_digest_order () =
  let a = Digest32.of_bytes (Bytes.make 32 '\x00')
  and b = Digest32.of_bytes (Bytes.make 32 '\x01') in
  check_bool "a < b" true (Digest32.compare a b < 0);
  check_bool "b > a" true (Digest32.compare b a > 0);
  check_bool "a = a" true (Digest32.compare a a = 0);
  check_bool "zero is smallest" true (Digest32.compare Digest32.zero a <= 0)

let test_digest_short () =
  let d = Digest32.hash_string "x" in
  Alcotest.(check int) "8 chars" 8 (String.length (Digest32.short d));
  check_bool "prefix" true
    (String.length (Digest32.to_hex d) = 64
    && String.sub (Digest32.to_hex d) 0 8 = Digest32.short d)

(* ---- Chain ---- *)

let test_chain_order_sensitive () =
  let ab = Chain.of_list [ Bytes.of_string "a"; Bytes.of_string "b" ] in
  let ba = Chain.of_list [ Bytes.of_string "b"; Bytes.of_string "a" ] in
  check_bool "order matters" false (Chain.equal ab ba)

let test_chain_no_concat_ambiguity () =
  (* ["ab"] and ["a"; "b"] must differ: each link is a fresh hash. *)
  let one = Chain.of_list [ Bytes.of_string "ab" ] in
  let two = Chain.of_list [ Bytes.of_string "a"; Bytes.of_string "b" ] in
  check_bool "no ambiguity" false (Chain.equal one two)

let test_chain_resume () =
  let full = Chain.of_list [ Bytes.of_string "a"; Bytes.of_string "b" ] in
  let partial = Chain.of_list [ Bytes.of_string "a" ] in
  let resumed = Chain.extend (Chain.of_digest (Chain.head partial)) (Bytes.of_string "b") in
  check_bool "resumable" true (Chain.equal full resumed)

let test_chain_genesis_distinct () =
  check_bool "genesis differs from one-element chain" false
    (Chain.equal Chain.genesis (Chain.of_list [ Bytes.empty ]))

let prop_chain_injective_on_prefix =
  QCheck.Test.make ~name:"extending changes head" ~count:200
    QCheck.(string_of_size Gen.(0 -- 32))
    (fun s ->
      let c = Chain.of_list [ Bytes.of_string "base" ] in
      not (Chain.equal c (Chain.extend c (Bytes.of_string s))))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "zkflow_hash"
    [
      ( "sha256",
        [
          Alcotest.test_case "empty" `Quick test_sha_empty;
          Alcotest.test_case "abc" `Quick test_sha_abc;
          Alcotest.test_case "448-bit" `Quick test_sha_448bit;
          Alcotest.test_case "896-bit" `Quick test_sha_896bit;
          Alcotest.test_case "million a" `Quick test_sha_million_a;
          Alcotest.test_case "streaming = one-shot" `Quick test_sha_streaming_equals_oneshot;
          Alcotest.test_case "finalize once" `Quick test_sha_finalize_once;
          Alcotest.test_case "update_sub bounds" `Quick test_sha_update_sub_bounds;
          Alcotest.test_case "digest_concat" `Quick test_sha_digest_concat;
          Alcotest.test_case "finalize_into = finalize" `Quick test_sha_finalize_into;
          Alcotest.test_case "hash_pairs bounds" `Quick test_hash_pairs_bounds;
          q prop_sha_streaming;
          q prop_hash_pairs;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "rfc4231 case1" `Quick test_hmac_rfc4231_case1;
          Alcotest.test_case "rfc4231 case2" `Quick test_hmac_rfc4231_case2;
          Alcotest.test_case "rfc4231 case3" `Quick test_hmac_rfc4231_case3;
          Alcotest.test_case "rfc4231 case6" `Quick test_hmac_rfc4231_case6_long_key;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
          Alcotest.test_case "mac_concat" `Quick test_hmac_mac_concat;
          Alcotest.test_case "expand" `Quick test_hmac_expand;
        ] );
      ( "digest32",
        [
          Alcotest.test_case "of_bytes copies" `Quick test_digest_of_bytes_copy;
          Alcotest.test_case "wrong length" `Quick test_digest_wrong_len;
          Alcotest.test_case "hex roundtrip" `Quick test_digest_hex_roundtrip;
          Alcotest.test_case "combine rule" `Quick test_digest_combine_is_sha_of_concat;
          Alcotest.test_case "ordering" `Quick test_digest_order;
          Alcotest.test_case "short form" `Quick test_digest_short;
        ] );
      ( "chain",
        [
          Alcotest.test_case "order sensitive" `Quick test_chain_order_sensitive;
          Alcotest.test_case "no concat ambiguity" `Quick test_chain_no_concat_ambiguity;
          Alcotest.test_case "resume" `Quick test_chain_resume;
          Alcotest.test_case "genesis distinct" `Quick test_chain_genesis_distinct;
          q prop_chain_injective_on_prefix;
        ] );
    ]
