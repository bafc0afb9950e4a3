(* DIR-24-8 trie: differential equality against a reference linear scan,
   add/remove churn, batch-vs-scalar agreement, and the element-level
   wiring (linear == trie == compiled closure, duplicate-prefix
   semantics, multicore conservation with a big table). *)

module Lpm = Oclick_lpm.Dir24_8
module Routegen = Oclick_lpm.Routegen

(* --- reference model: longest-prefix-first linear scan, stable order
   (first-declared wins among equal addr/len) --- *)

type ref_route = { r_addr : int; r_len : int; r_gw : int; r_port : int }

let ref_table routes =
  (* Stable sort by descending prefix length; duplicates (same addr/len)
     keep declaration order, so the first one is hit first. *)
  List.stable_sort (fun a b -> compare b.r_len a.r_len) routes

let mask_of_len len =
  if len = 0 then 0 else 0xffff_ffff lsl (32 - len) land 0xffff_ffff

let ref_lookup table dst =
  List.find_opt
    (fun r -> dst land mask_of_len r.r_len = r.r_addr)
    table

(* Dedup like the trie does: first addr/len declaration wins. *)
let dedup routes =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun r ->
      let key = (r.r_len lsl 32) lor r.r_addr in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    routes

let build_trie ?stride1 routes =
  let t = Lpm.create ?stride1 () in
  List.iter
    (fun r ->
      ignore (Lpm.add t ~addr:r.r_addr ~len:r.r_len ~gw:r.r_gw ~port:r.r_port))
    routes;
  t

let check_agree ~what table t dst =
  let r = Lpm.lookup t dst in
  match ref_lookup table dst with
  | None ->
    if Lpm.result_found r then
      Alcotest.failf "%s: dst %08x: trie found nh, reference missed" what dst
  | Some rr ->
    if not (Lpm.result_found r) then
      Alcotest.failf "%s: dst %08x: reference hit /%d, trie missed" what dst
        rr.r_len;
    let nh = Lpm.result_nh r in
    if Lpm.gw t nh <> rr.r_gw || Lpm.port t nh <> rr.r_port then
      Alcotest.failf "%s: dst %08x: trie (gw=%x,port=%d) reference (gw=%x,port=%d)"
        what dst (Lpm.gw t nh) (Lpm.port t nh) rr.r_gw rr.r_port

(* --- unit tests --- *)

let test_empty () =
  let t = Lpm.create ~stride1:16 () in
  Alcotest.(check bool) "miss" false (Lpm.result_found (Lpm.lookup t 0x01020304));
  Alcotest.(check int) "one touch" 1 (Lpm.result_touches (Lpm.lookup t 0));
  Alcotest.(check int) "no routes" 0 (Lpm.nroutes t);
  Alcotest.(check int) "no blocks" 0 (Lpm.leaf_blocks t)

let test_basic_lpm () =
  let t = Lpm.create ~stride1:16 () in
  ignore (Lpm.add t ~addr:0 ~len:0 ~gw:0 ~port:9);
  ignore (Lpm.add t ~addr:0x0a000000 ~len:8 ~gw:0 ~port:1);
  ignore (Lpm.add t ~addr:0x0a010000 ~len:16 ~gw:0 ~port:2);
  ignore (Lpm.add t ~addr:0x0a010200 ~len:24 ~gw:0xc0a80001 ~port:3);
  ignore (Lpm.add t ~addr:0x0a010203 ~len:32 ~gw:0 ~port:4);
  let port_of dst =
    let r = Lpm.lookup t dst in
    if Lpm.result_found r then Lpm.port t (Lpm.result_nh r) else -1
  in
  Alcotest.(check int) "default" 9 (port_of 0xc0000001);
  Alcotest.(check int) "/8" 1 (port_of 0x0aff0001);
  Alcotest.(check int) "/16" 2 (port_of 0x0a01ff01);
  Alcotest.(check int) "/24" 3 (port_of 0x0a010201);
  Alcotest.(check int) "/32" 4 (port_of 0x0a010203);
  let r = Lpm.lookup t 0x0a010203 in
  Alcotest.(check int) "gw carried" 0 (Lpm.gw t (Lpm.result_nh r));
  let r24 = Lpm.lookup t 0x0a010204 in
  Alcotest.(check int) "gw on /24" 0xc0a80001 (Lpm.gw t (Lpm.result_nh r24))

let test_touch_bounds () =
  (* stride1=24 is DIR-24-8: at most 2 touches even with /32s present. *)
  let t = Lpm.create ~stride1:24 () in
  ignore (Lpm.add t ~addr:0 ~len:0 ~gw:0 ~port:0);
  ignore (Lpm.add t ~addr:0x0a010203 ~len:32 ~gw:0 ~port:1);
  Alcotest.(check int) "stage-1 hit" 1 (Lpm.result_touches (Lpm.lookup t 0xc0000001));
  Alcotest.(check int) "leaf hit" 2 (Lpm.result_touches (Lpm.lookup t 0x0a010203));
  Alcotest.(check int) "leaf miss-range" 2
    (Lpm.result_touches (Lpm.lookup t 0x0a010204))

let test_duplicate_add () =
  let t = Lpm.create ~stride1:16 () in
  Alcotest.(check bool) "first added" true
    (Lpm.add t ~addr:0x0a000000 ~len:8 ~gw:0 ~port:1 = `Added);
  Alcotest.(check bool) "second refused" true
    (Lpm.add t ~addr:0x0a000000 ~len:8 ~gw:0 ~port:2 = `Duplicate);
  Alcotest.(check int) "one route" 1 (Lpm.nroutes t);
  let r = Lpm.lookup t 0x0a000001 in
  Alcotest.(check int) "first wins" 1 (Lpm.port t (Lpm.result_nh r))

let test_remove_restores () =
  let t = Lpm.create ~stride1:16 () in
  ignore (Lpm.add t ~addr:0x0a000000 ~len:8 ~gw:0 ~port:1);
  let blocks0 = Lpm.leaf_blocks t in
  ignore (Lpm.add t ~addr:0x0a010200 ~len:24 ~gw:0 ~port:2);
  ignore (Lpm.add t ~addr:0x0a010203 ~len:32 ~gw:0 ~port:3);
  Alcotest.(check bool) "remove /32" true (Lpm.remove t ~addr:0x0a010203 ~len:32);
  let r = Lpm.lookup t 0x0a010203 in
  Alcotest.(check int) "falls back to /24" 2 (Lpm.port t (Lpm.result_nh r));
  Alcotest.(check bool) "remove /24" true (Lpm.remove t ~addr:0x0a010200 ~len:24);
  let r = Lpm.lookup t 0x0a010203 in
  Alcotest.(check int) "falls back to /8" 1 (Lpm.port t (Lpm.result_nh r));
  Alcotest.(check int) "blocks compacted" blocks0 (Lpm.leaf_blocks t);
  Alcotest.(check bool) "remove absent" false
    (Lpm.remove t ~addr:0x0b000000 ~len:8)

(* --- QCheck generators --- *)

let gen_route =
  QCheck.Gen.(
    let* len = oneofl [ 0; 4; 7; 8; 12; 15; 16; 17; 20; 22; 24; 25; 28; 30; 31; 32 ] in
    let* a = int_bound 0xff and* b = int_bound 0xff in
    let* c = int_bound 0xff and* d = int_bound 0xff in
    let addr = (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d in
    let addr = addr land mask_of_len len in
    let* gw = oneofl [ 0; 0x0a000001; 0xc0a80101 ] in
    let* port = int_bound 7 in
    return { r_addr = addr; r_len = len; r_gw = gw; r_port = port })

let gen_table = QCheck.Gen.(list_size (int_range 1 120) gen_route)

(* Probe near route boundaries as well as uniformly: edges of painted
   ranges are where off-by-ones live. *)
let probes_for routes rand_dsts =
  List.concat_map
    (fun r ->
      let m = mask_of_len r.r_len in
      let last = r.r_addr lor (lnot m land 0xffff_ffff) in
      [ r.r_addr; last; (r.r_addr - 1) land 0xffff_ffff; (last + 1) land 0xffff_ffff ])
    routes
  @ rand_dsts

let arb_case =
  QCheck.make
    ~print:(fun (routes, _) ->
      String.concat "; "
        (List.map
           (fun r -> Printf.sprintf "%08x/%d->%d" r.r_addr r.r_len r.r_port)
           routes))
    QCheck.Gen.(pair gen_table (list_size (return 64) (int_bound 0xffff_ffff)))

let prop_trie_equals_reference =
  QCheck.Test.make ~count:120 ~name:"trie == reference linear scan" arb_case
    (fun (routes, rand_dsts) ->
      let table = ref_table (dedup routes) in
      List.iter
        (fun stride1 ->
          let t = build_trie ~stride1 routes in
          List.iter
            (fun dst -> check_agree ~what:(Printf.sprintf "s%d" stride1) table t dst)
            (probes_for routes rand_dsts))
        [ 16; 24 ];
      true)

let prop_batch_equals_scalar =
  QCheck.Test.make ~count:80 ~name:"lookup_batch == scalar lookups" arb_case
    (fun (routes, rand_dsts) ->
      let t = build_trie ~stride1:16 routes in
      let dsts = Array.of_list (probes_for routes rand_dsts) in
      let n = Array.length dsts in
      let out = Array.make n 0 in
      let batch_touches = Lpm.lookup_batch t dsts out n in
      let scalar_touches = ref 0 in
      Array.iteri
        (fun i dst ->
          let r = Lpm.lookup t dst in
          scalar_touches := !scalar_touches + Lpm.result_touches r;
          let want = if Lpm.result_found r then Lpm.result_nh r else -1 in
          if out.(i) <> want then
            Alcotest.failf "batch dst %08x: batch nh %d scalar nh %d" dst out.(i)
              want)
        dsts;
      if batch_touches <> !scalar_touches then
        Alcotest.failf "touches: batch %d scalar %d" batch_touches !scalar_touches;
      true)

let prop_churn =
  (* Adding then removing a set of routes restores every lookup, and
     removals fall back to the surviving covering routes (checked via the
     reference on the surviving set). *)
  QCheck.Test.make ~count:80 ~name:"add/remove churn restores lookups"
    (QCheck.make
       QCheck.Gen.(
         triple gen_table gen_table
           (list_size (return 48) (int_bound 0xffff_ffff))))
    (fun (keep, churn, rand_dsts) ->
      let keep = dedup keep in
      let t = build_trie ~stride1:16 keep in
      let blocks0 = Lpm.leaf_blocks t in
      let nroutes0 = Lpm.nroutes t in
      (* Add the churn set (skipping duplicates of kept routes)... *)
      let added =
        List.filter
          (fun r ->
            Lpm.add t ~addr:r.r_addr ~len:r.r_len ~gw:r.r_gw ~port:r.r_port
            = `Added)
          churn
      in
      (* ...check combined equality while the churn set is live... *)
      let table_combined = ref_table (dedup (keep @ added)) in
      List.iter
        (fun dst -> check_agree ~what:"combined" table_combined t dst)
        (probes_for (keep @ added) rand_dsts);
      (* ...then remove it and check the original table is restored. *)
      List.iter
        (fun r ->
          if not (Lpm.remove t ~addr:r.r_addr ~len:r.r_len) then
            Alcotest.failf "remove %08x/%d failed" r.r_addr r.r_len)
        added;
      Alcotest.(check int) "route count restored" nroutes0 (Lpm.nroutes t);
      Alcotest.(check int) "blocks compacted" blocks0 (Lpm.leaf_blocks t);
      let table = ref_table keep in
      List.iter
        (fun dst -> check_agree ~what:"restored" table t dst)
        (probes_for (keep @ added) rand_dsts);
      true)

let test_routegen_deterministic () =
  let a = Routegen.generate ~seed:7 ~n:500 ~nports:4 () in
  let b = Routegen.generate ~seed:7 ~n:500 ~nports:4 () in
  Alcotest.(check bool) "same seed same table" true (a = b);
  let c = Routegen.generate ~seed:8 ~n:500 ~nports:4 () in
  Alcotest.(check bool) "different seed different table" true (a <> c);
  Alcotest.(check int) "count" 500 (Array.length a);
  Array.iter
    (fun (r : Routegen.route) ->
      if r.len <> 0 && (r.addr lsr 24) = 10 then
        Alcotest.fail "routegen produced a 10/8 route")
    a;
  let d1 = Routegen.probe_dsts ~seed:3 ~routes:a ~n:100 () in
  let d2 = Routegen.probe_dsts ~seed:3 ~routes:a ~n:100 () in
  Alcotest.(check bool) "same probes" true (d1 = d2)

let test_routegen_trie_agrees () =
  (* The generator's output drives the big benches; make sure a generated
     table agrees with the reference at a non-toy size. *)
  let routes = Routegen.generate ~seed:11 ~n:3000 ~nports:8 () in
  let as_ref =
    Array.to_list
      (Array.map
         (fun (r : Routegen.route) ->
           { r_addr = r.addr; r_len = r.len; r_gw = r.gw; r_port = r.port })
         routes)
  in
  let table = ref_table as_ref in
  let t = build_trie ~stride1:24 as_ref in
  Alcotest.(check int) "all inserted" 3000 (Lpm.nroutes t);
  let dsts = Routegen.probe_dsts ~seed:5 ~routes ~n:2000 () in
  Array.iter (fun dst -> check_agree ~what:"routegen" table t dst) dsts

(* --- element-level wiring: linear == trie == compiled closure --- *)

module Driver = Oclick_runtime.Driver
module Hooks = Oclick_runtime.Hooks
module Router = Oclick_graph.Router
module Packet = Oclick_packet.Packet
module Testbed = Oclick_hw.Testbed
module Platform = Oclick_hw.Platform

let () = Oclick_elements.register_all ()
let () = Oclick_compile.register ()

let route_spec r =
  let dotted a =
    Printf.sprintf "%d.%d.%d.%d" ((a lsr 24) land 0xff) ((a lsr 16) land 0xff)
      ((a lsr 8) land 0xff) (a land 0xff)
  in
  if r.r_gw = 0 then Printf.sprintf "%s/%d %d" (dotted r.r_addr) r.r_len r.r_port
  else
    Printf.sprintf "%s/%d %s %d" (dotted r.r_addr) r.r_len (dotted r.r_gw)
      r.r_port

let table_spec routes = String.concat ", " (List.map route_spec routes)

(* A route element with two connected outputs (and any higher route port
   exercising the unconnected-port drop), counters on each output, drop
   reasons captured via hooks. [Strip(0)] upstream so that pushing into
   [src] traverses a real connection — the one the graph compiler
   replaces — meaning [compile:true] runs the trie's fused closure. *)
type rig = {
  rig_driver : Driver.t;
  rig_drops : (string, int) Hashtbl.t;
}

let make_rig ~cls ~compile routes =
  let config =
    Printf.sprintf
      "feed :: Idle;\n\
       src :: Strip(0);\n\
       rt :: %s(%s);\n\
       feed -> src -> rt;\n\
       rt[0] -> c0 :: Counter; c0 -> d0 :: Discard;\n\
       rt[1] -> c1 :: Counter; c1 -> d1 :: Discard;\n"
      cls (table_spec routes)
  in
  let graph =
    match Router.parse_string config with
    | Ok g -> g
    | Error e -> Alcotest.failf "rig parse: %s" e
  in
  let drops = Hashtbl.create 8 in
  let hooks =
    {
      Hooks.null with
      Hooks.on_drop =
        (fun ~idx:_ ~cls:_ ~reason _ ->
          Hashtbl.replace drops reason
            (1 + Option.value ~default:0 (Hashtbl.find_opt drops reason)));
    }
  in
  match Driver.instantiate ~hooks ~compile graph with
  | Ok d -> { rig_driver = d; rig_drops = drops }
  | Error e -> Alcotest.failf "rig instantiate (%s): %s" cls e

let rig_element rig name =
  match Driver.element rig.rig_driver name with
  | Some e -> e
  | None -> Alcotest.failf "rig: no element %s" name

let rig_stat rig name key =
  match List.assoc_opt key (rig_element rig name)#stats with
  | Some v -> v
  | None -> Alcotest.failf "rig: %s has no stat %s" name key

(* Drive [dsts] through the rig (scalar pushes, or batches of [batch])
   and summarize: per-probe destination annotation after the lookup
   (sees every gateway rewrite), per-port totals, misses, drops. *)
let drive ?batch rig dsts =
  let src = rig_element rig "src" in
  let dst_after =
    match batch with
    | None ->
        let p = Packet.create 64 in
        Array.map
          (fun dst ->
            (Packet.anno p).Packet.dst_ip <- dst;
            src#push 0 p;
            (Packet.anno p).Packet.dst_ip)
          dsts
    | Some bn ->
        let out = Array.make (Array.length dsts) 0 in
        let i = ref 0 in
        while !i < Array.length dsts do
          let n = min bn (Array.length dsts - !i) in
          let batch = Array.init n (fun _ -> Packet.create 64) in
          Array.iteri
            (fun j p -> (Packet.anno p).Packet.dst_ip <- dsts.(!i + j))
            batch;
          let snapshot = Array.map (fun p -> p) batch in
          src#push_batch 0 batch;
          Array.iteri
            (fun j p -> out.(!i + j) <- (Packet.anno p).Packet.dst_ip)
            snapshot;
          i := !i + n
        done;
        out
  in
  ( dst_after,
    rig_stat rig "c0" "packets",
    rig_stat rig "c1" "packets",
    rig_stat rig "rt" "misses",
    List.sort compare
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) rig.rig_drops []) )

let gen_elt_route =
  (* Ports 0..3 against two connected outputs: high ports exercise the
     "route to unconnected port" drop path. *)
  QCheck.Gen.(
    let* r = gen_route in
    let* port = int_bound 3 in
    return { r with r_port = port })

let arb_elt_case =
  QCheck.make
    ~print:(fun (routes, _) -> table_spec routes)
    QCheck.Gen.(
      pair
        (list_size (int_range 1 40) gen_elt_route)
        (list_size (return 48) (int_bound 0xffff_ffff)))

let prop_element_modes_agree =
  QCheck.Test.make ~count:40
    ~name:"element: linear == trie == trie batch == compiled" arb_elt_case
    (fun (routes, rand_dsts) ->
      let dsts = Array.of_list (probes_for routes rand_dsts) in
      let reference =
        drive (make_rig ~cls:"LinearIPLookup" ~compile:false routes) dsts
      in
      List.iter
        (fun (what, result) ->
          if result <> reference then
            Alcotest.failf "%s disagrees with the linear reference" what)
        [
          ("trie", drive (make_rig ~cls:"LookupIPRoute" ~compile:false routes) dsts);
          ( "trie batch7",
            drive ~batch:7
              (make_rig ~cls:"LookupIPRoute" ~compile:false routes)
              dsts );
          ( "radix alias compiled",
            drive (make_rig ~cls:"RadixIPLookup" ~compile:true routes) dsts );
        ];
      true)

let prop_element_churn =
  (* Live adds then removes through the write handlers leave observable
     behaviour exactly where it started. *)
  QCheck.Test.make ~count:30 ~name:"element: add/remove churn restores routing"
    (QCheck.make
       QCheck.Gen.(
         triple
           (list_size (int_range 1 30) gen_elt_route)
           (list_size (int_range 1 30) gen_elt_route)
           (list_size (return 32) (int_bound 0xffff_ffff))))
    (fun (base, churn, rand_dsts) ->
      let rig = make_rig ~cls:"LookupIPRoute" ~compile:false base in
      let rt = rig_element rig "rt" in
      let dsts = Array.of_list (probes_for (base @ churn) rand_dsts) in
      let before = drive rig dsts in
      let added =
        List.filter
          (fun r -> rt#write_handler "add" (route_spec r) = Ok ())
          churn
      in
      List.iter
        (fun r ->
          let prefix =
            Printf.sprintf "%d.%d.%d.%d/%d"
              ((r.r_addr lsr 24) land 0xff)
              ((r.r_addr lsr 16) land 0xff)
              ((r.r_addr lsr 8) land 0xff)
              (r.r_addr land 0xff) r.r_len
          in
          match rt#write_handler "remove" prefix with
          | Ok () -> ()
          | Error e -> Alcotest.failf "remove %s: %s" prefix e)
        added;
      let after = drive rig dsts in
      (* Counters and drop tallies accumulate across the two passes:
         compare the per-pass deltas. *)
      let delta (d1, c0a, c1a, ma, dropsa) (_, c0b, c1b, mb, dropsb) =
        ( d1,
          c0a - c0b,
          c1a - c1b,
          ma - mb,
          List.filter
            (fun (_, v) -> v <> 0)
            (List.map
               (fun (k, v) ->
                 (k, v - Option.value ~default:0 (List.assoc_opt k dropsb)))
               dropsa) )
      in
      let b = delta before ([||], 0, 0, 0, [])
      and a = delta after before in
      let strip (d, a1, a2, a3, dr) = (Array.to_list d, a1, a2, a3, dr) in
      if strip a <> strip b then
        Alcotest.fail "element behaviour changed after add/remove churn";
      true)

let test_duplicate_prefix_first_wins () =
  List.iter
    (fun cls ->
      let routes =
        [
          { r_addr = 0x0a000000; r_len = 8; r_gw = 0; r_port = 0 };
          { r_addr = 0x0a000000; r_len = 8; r_gw = 0; r_port = 1 };
        ]
      in
      let rig = make_rig ~cls ~compile:false routes in
      let dsts = Array.make 5 0x0a123456 in
      let _, c0, c1, misses, _ = drive rig dsts in
      Alcotest.(check int) (cls ^ ": first route wins") 5 c0;
      Alcotest.(check int) (cls ^ ": later duplicate ignored") 0 c1;
      Alcotest.(check int) (cls ^ ": no misses") 0 misses;
      Alcotest.(check int) (cls ^ ": duplicate dropped from table") 1
        (rig_stat rig "rt" "routes"))
    [ "LookupIPRoute"; "LinearIPLookup" ];
  (* The live-add handler refuses duplicates the same way. *)
  let rig =
    make_rig ~cls:"LookupIPRoute" ~compile:false
      [ { r_addr = 0x0a000000; r_len = 8; r_gw = 0; r_port = 0 } ]
  in
  let rt = rig_element rig "rt" in
  Alcotest.(check bool) "live duplicate refused" true
    (Result.is_error (rt#write_handler "add" "10.0.0.0/8 1"));
  Alcotest.(check int) "table unchanged" 1 (rig_stat rig "rt" "routes")

let test_scratch_reset_on_configure () =
  (* Reconfigure between differently-sized batches: stale scratch sizing
     must not leak across the table swap (the PR's bugfix). *)
  let rig =
    make_rig ~cls:"LookupIPRoute" ~compile:false
      [ { r_addr = 0; r_len = 0; r_gw = 0; r_port = 0 } ]
  in
  let rt = rig_element rig "rt" in
  let big = Array.make 64 0x0a000001 in
  let _ = drive ~batch:64 rig big in
  (match rt#configure "0.0.0.0/0 1" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "reconfigure: %s" e);
  let _, c0, c1, _, _ = drive ~batch:8 rig (Array.make 16 0x0a000001) in
  Alcotest.(check int) "pre-swap traffic on port 0" 64 c0;
  Alcotest.(check int) "post-swap traffic on port 1" 16 c1

(* With no hooks installed, a scalar lookup must not box a work charge
   nobody reads: pushing one packet through an interpreted LookupIPRoute
   into a Discard allocates nothing per packet (measured the way
   bench/membench.ml measures, with Gc.minor_words). *)
let test_scalar_lookup_allocation_free () =
  let d =
    match
      Driver.of_string
        "Idle -> rt :: LookupIPRoute(10.0.0.0/8 0, 0.0.0.0/0 10.0.0.1 0);\n\
         rt[0] -> Discard;"
    with
    | Ok d -> d
    | Error e -> Alcotest.failf "instantiate: %s" e
  in
  let rt = Option.get (Driver.element d "rt") in
  let p = Packet.create 64 in
  let push () =
    (Packet.anno p).Packet.dst_ip <- 0x0a000001;
    rt#push 0 p
  in
  push ();
  let n = 100_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    push ()
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  if words > 0.1 then
    Alcotest.failf "scalar LookupIPRoute allocates %.2f minor words/packet" words

(* --- multicore: conservation with a production-size table --- *)

let test_domains2_conservation_100k () =
  let extra =
    Array.to_list
      (Array.map Oclick_lpm.Routegen.route_to_string
         (Oclick_lpm.Routegen.generate ~seed:17 ~default_route:false
            ~n:100_000 ~nports:3 ()))
  in
  let graph =
    Oclick.Ip_router.graph
      (Oclick.Ip_router.config ~extra_routes:extra
         (Oclick.Ip_router.standard_interfaces 2))
  in
  let platform = { Platform.p0 with Platform.p_nports = 2 } in
  let flows =
    [
      { Testbed.fl_src = 0; Testbed.fl_dst = 1 };
      { Testbed.fl_src = 1; Testbed.fl_dst = 0 };
    ]
  in
  match
    Testbed.run ~duration_ms:15 ~warmup_ms:5 ~domains:2 ~platform ~flows
      ~graph ~input_pps:100_000 ()
  with
  | Error e -> Alcotest.failf "domains=2 with 100k routes: %s" e
  | Ok r ->
      (* Ok certifies packet conservation; check the table is the size we
         loaded and visible through the result. *)
      Alcotest.(check bool) "forwarding" true (r.Testbed.r_forwarded_pps > 0.);
      let rt_stats =
        match r.Testbed.r_route_tables with
        | [ (_, stats) ] -> stats
        | l -> Alcotest.failf "expected one route table, got %d" (List.length l)
      in
      Alcotest.(check bool) "big table loaded" true
        (List.assoc "routes" rt_stats >= 100_000);
      Alcotest.(check bool) "trie bytes visible" true
        (List.assoc "trie_bytes" rt_stats > 1 lsl 26)

let qt = QCheck_alcotest.to_alcotest

let library_tests =
  [
    Alcotest.test_case "empty table" `Quick test_empty;
    Alcotest.test_case "basic longest-prefix" `Quick test_basic_lpm;
    Alcotest.test_case "touch bounds (DIR-24-8)" `Quick test_touch_bounds;
    Alcotest.test_case "duplicate add refused" `Quick test_duplicate_add;
    Alcotest.test_case "remove restores covering" `Quick test_remove_restores;
    Alcotest.test_case "routegen deterministic" `Quick test_routegen_deterministic;
    Alcotest.test_case "routegen table == reference" `Quick test_routegen_trie_agrees;
    qt prop_trie_equals_reference;
    qt prop_batch_equals_scalar;
    qt prop_churn;
  ]

let element_tests =
  [
    Alcotest.test_case "duplicate prefix: first declared wins" `Quick
      test_duplicate_prefix_first_wins;
    Alcotest.test_case "scratch reset on reconfigure" `Quick
      test_scratch_reset_on_configure;
    Alcotest.test_case "scalar lookup allocation-free, null hooks" `Quick
      test_scalar_lookup_allocation_free;
    qt prop_element_modes_agree;
    qt prop_element_churn;
  ]

let testbed_tests =
  [
    Alcotest.test_case "domains=2 conservation, 100k routes" `Slow
      test_domains2_conservation_100k;
  ]

let () =
  Alcotest.run "lpm"
    [
      ("library", library_tests);
      ("element", element_tests);
      ("testbed", testbed_tests);
    ]
