(* Real wall-clock microbenchmarks (Bechamel): the classification and
   dispatch effects the paper measures, observed natively in OCaml rather
   than through the cycle model. *)

open Bechamel
open Toolkit
module Tree = Oclick_classifier.Tree
module Compile = Oclick_classifier.Compile
module Optimize = Oclick_classifier.Optimize
module Packet = Oclick_packet.Packet

let firewall_tree () =
  match Oclick_classifier.Filter.ipfilter_tree Figures.firewall_rules with
  | Ok t -> Optimize.optimize t
  | Error e -> failwith e

let arp_tree () =
  match
    Oclick_classifier.Pattern.tree_of_config
      "12/0806 20/0001, 12/0806 20/0002, 12/0800, -"
  with
  | Ok t -> Optimize.optimize t
  | Error e -> failwith e

let tests () =
  let fw = firewall_tree () in
  let dns5 = Figures.dns5_packet () in
  let fw_compiled = Compile.compile_packet fw in
  let arp = arp_tree () in
  let udp = Oclick_packet.Headers.Build.udp ~src_ip:1 ~dst_ip:2 () in
  let arp_compiled = Compile.compile_packet arp in
  (* Dispatch: a push through the element framework's port indirection
     (the "virtual call") vs a pre-resolved closure (devirtualized). The
     hooked variant installs a live on_transfer callback — the lean
     variants above it show what hoisting the hook field reads out of
     the transfer path buys when hooks are null. *)
  Oclick_elements.register_all ();
  Oclick_compile.register ();
  let make_driver ?hooks ?(compile = false) () =
    match
      Oclick_runtime.Driver.of_string ?hooks ~compile
        "Idle -> c :: Counter -> c2 :: Counter -> Discard;"
    with
    | Ok d -> d
    | Error e -> failwith e
  in
  let driver = make_driver () in
  let c = Option.get (Oclick_runtime.Driver.element driver "c") in
  let c2 = Option.get (Oclick_runtime.Driver.element driver "c2") in
  let direct = fun p -> c2#push 0 p in
  let transfers = ref 0 in
  let hooked_hooks =
    {
      Oclick_runtime.Hooks.null with
      Oclick_runtime.Hooks.on_transfer = (fun _ _ -> incr transfers);
    }
  in
  let hooked = make_driver ~hooks:hooked_hooks () in
  let hc = Option.get (Oclick_runtime.Driver.element hooked "c") in
  let fused = make_driver ~compile:true () in
  let fc = Option.get (Oclick_runtime.Driver.element fused "c") in
  let small = Packet.create 60 in
  (* Buffer alloc/recycle rung of the layer ladder: one frame's packet
     layer cost — take a buffer from the pool, fill it, give it back —
     on the off-heap slab and on heap Bytes, at the three frame sizes
     the fig8 workloads inject. *)
  let alloc_fill ~slab size =
    let pool = Packet.Pool.create ~capacity:4 ~slab () in
    let frame = String.make size '\x5a' in
    Test.make
      ~name:
        (Printf.sprintf "packet/alloc+fill/%s/%d"
           (if slab then "slab" else "heap")
           size)
      (Staged.stage (fun () ->
           let p = Packet.Pool.alloc pool size in
           Packet.set_string p ~pos:0 frame;
           Packet.Pool.recycle pool p))
  in
  List.concat_map
    (fun slab -> List.map (alloc_fill ~slab) [ 64; 576; 1500 ])
    [ true; false ]
  @ [
    Test.make ~name:"classifier/interp/firewall-DNS5"
      (Staged.stage (fun () -> Tree.classify fw dns5));
    Test.make ~name:"classifier/compiled/firewall-DNS5"
      (Staged.stage (fun () -> fw_compiled dns5));
    Test.make ~name:"classifier/interp/arp-classifier"
      (Staged.stage (fun () -> Tree.classify arp udp));
    Test.make ~name:"classifier/compiled/arp-classifier"
      (Staged.stage (fun () -> arp_compiled udp));
    Test.make ~name:"dispatch/port-indirection"
      (Staged.stage (fun () -> c#output 0 small));
    Test.make ~name:"dispatch/port-indirection-hooked"
      (Staged.stage (fun () -> hc#output 0 small));
    Test.make ~name:"dispatch/compiled-fused"
      (Staged.stage (fun () -> fc#output 0 small));
    Test.make ~name:"dispatch/direct-closure"
      (Staged.stage (fun () -> direct small));
    Test.make ~name:"tools/parse+flatten IP router"
      (Staged.stage
         (let cfg =
            Oclick.Ip_router.config (Oclick.Ip_router.standard_interfaces 8)
          in
          fun () -> Oclick_graph.Router.parse_string cfg));
  ]

let run () =
  Common.section "Microbenchmarks (real time, Bechamel)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"oclick" ~fmt:"%s %s" (tests ()))
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.iter
    (fun (name, r) ->
      match Analyze.OLS.estimates r with
      | Some (est :: _) -> Printf.printf "%-45s %10.1f ns/run\n" name est
      | _ -> Printf.printf "%-45s (no estimate)\n" name)
    (List.sort compare rows);
  print_newline ()
