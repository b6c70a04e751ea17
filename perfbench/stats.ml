(* Small order statistics over float samples. *)

let sorted xs = List.sort Float.compare xs

(* Linear-interpolated quantile, [q] in [0, 1]; 0 on no samples. *)
let quantile q xs =
  match sorted xs with
  | [] -> 0.
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = truncate pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

let sum xs = List.fold_left ( +. ) 0. xs
let mean xs = match xs with [] -> 0. | _ -> sum xs /. float_of_int (List.length xs)

(* The highest percentile (a multiple of 5, at most 99) that still has
   at least ten samples above it: [(pct, value)]. [None] when there are
   not enough samples for even the median. *)
let tail xs =
  let n = List.length xs in
  let ok p = float_of_int n *. (1. -. (float_of_int p /. 100.)) >= 10. in
  let candidates = [ 99; 95; 90; 85; 80; 75; 70; 65; 60; 55; 50 ] in
  match List.find_opt ok candidates with
  | None -> None
  | Some p -> Some (p, quantile (float_of_int p /. 100.) xs)
