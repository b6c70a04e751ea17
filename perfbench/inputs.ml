(* Seeded inputs of the three workloads, generated before any clock
   starts: 4-router linear-topology traffic over a Zipf flow
   population, cut into integrity windows, plus the query lists.

   The traffic is shaped so that its cost barely depends on the seed:
   every epoch carries the same number of flows per router and
   introduces the same number of new flows, so the CLog grows along
   the same curve for every seed. Keys and metric values vary, and
   with them the Fiat-Shamir openings, so receipt sizes differ by a few
   per cent between seeds. *)

module Gen = Zkflow_netflow.Gen
module Topology = Zkflow_netflow.Topology
module Router = Zkflow_netflow.Router
module Packet = Zkflow_netflow.Packet
module Record = Zkflow_netflow.Record
module Flowkey = Zkflow_netflow.Flowkey
module Rng = Zkflow_util.Rng
module Epoch = Zkflow_store.Epoch
open Zkflow_core

let routers = 4

type epoch_input = {
  epoch : int;
  windows : (int * Record.t list) list;  (** (router, window), ascending *)
  records : int;
}

type traffic = {
  first : int;          (** flows in epoch 0 (the founding window) *)
  per_epoch : int;      (** flows per router window in later epochs *)
  fresh : int;          (** new flows among them, while the population lasts *)
  population : int;
}

(* Exactly [k] distinct indices below [n], Zipf-weighted (rank 1 most
   popular). *)
let zipf_distinct rng ~n ~k =
  let seen = Hashtbl.create k in
  let rec go acc m =
    if m = k then List.rev acc
    else
      let i = Rng.zipf rng ~n ~s:1.1 - 1 in
      if Hashtbl.mem seen i then go acc m
      else begin
        Hashtbl.add seen i ();
        go (i :: acc) (m + 1)
      end
  in
  go [] 0

(* Loss only at the egress router, so every router sees every flow of
   the epoch and window sizes are exact. *)
let loss_rate = [| 0.; 0.; 0.; 0.05 |]

let history ~seed ~epochs (tr : traffic) =
  let rng = Rng.create (Int64.of_int seed) in
  let flows =
    Gen.flows rng { Gen.default_profile with flow_count = tr.population }
  in
  let topo =
    Topology.linear (List.init routers (fun id -> Router.default_config ~id))
  in
  let policy = Epoch.default in
  let known = ref 0 in
  List.init epochs (fun epoch ->
      let chosen =
        if epoch = 0 then begin
          known := min tr.first tr.population;
          List.init !known Fun.id
        end
        else begin
          let fresh = max 0 (min tr.fresh (tr.population - !known)) in
          let revisit = zipf_distinct rng ~n:!known ~k:(tr.per_epoch - fresh) in
          let added = List.init fresh (fun i -> !known + i) in
          known := !known + fresh;
          revisit @ added
        end
      in
      let t0 = Epoch.start_ms policy epoch in
      let packets =
        List.concat_map
          (fun i ->
            List.init
              (1 + Rng.int rng 4)
              (fun _ ->
                Packet.make ~key:flows.(i)
                  ~size:(400 + Rng.int rng 800)
                  ~ts:(t0 + Rng.int rng 4000)))
          chosen
        |> List.stable_sort (fun (a : Packet.t) b -> Int.compare a.ts b.ts)
      in
      List.iter (Topology.inject topo ~rng ~loss_rate) packets;
      let windows =
        Topology.flush topo ~now:(t0 + 4500)
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      in
      let records = List.fold_left (fun n (_, w) -> n + List.length w) 0 windows in
      { epoch; windows; records })

(* The host-side reference CLog after each epoch: what the guest must
   compute, folding the routers' windows in router order. *)
let references (h : epoch_input list) =
  let _, rev =
    List.fold_left
      (fun (prev, acc) e ->
        let batch =
          Array.concat (List.map (fun (_, w) -> Array.of_list w) e.windows)
        in
        let next = Clog.apply_batch prev batch in
        (next, next :: acc))
      (Clog.empty, []) h
  in
  Array.of_list (List.rev rev)

(* ---- query lists ---- *)

let metrics = [| Guests.Packets; Guests.Bytes; Guests.Hops; Guests.Losses |]

(* A deterministic shuffled list of distinct proof-backed queries over
   the CLog's entries: the paper's SUM(hop_count) by src/dst, exact-flow
   losses, COUNT per destination, and MAX per source, each also over
   the other metrics. *)
let distinct_queries ~seed clog =
  let open Guests in
  let any = match_any in
  let per_entry (e : Clog.entry) =
    let k = e.Clog.key in
    let exact =
      {
        src_ip = Some k.Flowkey.src_ip;
        dst_ip = Some k.dst_ip;
        ports = Some ((k.src_port lsl 16) lor k.dst_port);
        proto = Some k.proto;
      }
    in
    [ Query.sum_hops_between ~src:k.src_ip ~dst:k.dst_ip; Query.loss_of_flow k ]
    @ List.concat_map
        (fun metric ->
          [
            { predicate = { any with dst_ip = Some k.dst_ip }; op = Count; metric };
            { predicate = { any with src_ip = Some k.src_ip }; op = Max; metric };
            { predicate = exact; op = Sum; metric };
            { predicate = { any with src_ip = Some k.src_ip; dst_ip = Some k.dst_ip };
              op = Min; metric };
          ])
        (Array.to_list metrics)
  in
  let seen = Hashtbl.create 256 in
  let all =
    Array.to_list (Clog.entries clog)
    |> List.concat_map per_entry
    |> List.filter (fun q ->
           let key = Hashtbl.hash q in
           if Hashtbl.mem seen key && List.exists (params_equal q) (Hashtbl.find_all seen key)
           then false
           else begin
             Hashtbl.add seen key q;
             true
           end)
    |> Array.of_list
  in
  Rng.shuffle (Rng.create (Int64.of_int (seed + 1))) all;
  all

(* Distinct flow-key sets for batched readouts, [size] keys each, so
   every readout is a memo miss. *)
let flow_sets ~seed ~count ~size clog =
  let keys = Array.map (fun (e : Clog.entry) -> e.Clog.key) (Clog.entries clog) in
  let rng = Rng.create (Int64.of_int (seed + 2)) in
  let n = Array.length keys in
  let seen = Hashtbl.create count in
  let rec draw tries =
    let idx = zipf_distinct rng ~n ~k:(min size n) |> List.sort Int.compare in
    if Hashtbl.mem seen idx && tries > 0 then draw (tries - 1)
    else begin
      Hashtbl.replace seen idx ();
      idx
    end
  in
  List.init count (fun i ->
      let m = metrics.(i mod Array.length metrics) in
      (m, List.map (fun j -> keys.(j)) (draw 1000)))
