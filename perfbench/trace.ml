(* The traced run: per-layer metrics, from runs separate from the timed
   ones.

   1. Set-up is timed phase by phase (parse, instantiate, fuse).
   2. Closed-loop slices alternate between an untraced router and a
      traced one, so that the price of tracing is not confounded with
      drift in the host's speed. The untraced slices give the counters
      read around them (allocation, pool) and the untraced rate; an
      open-loop slice on the untraced router gives the scheduler and
      queue counters.
   3. The traced router has the obs ledger installed (Oclick_obs,
      wall-clock attribution), and every call the benchmark makes into
      it is wrapped in a span. Element self time is summed by lib/
      module and reconciled with the spans.
   4. A layer ladder times single public functions of each module on
      the workload's own inputs.

   A layer the workload never reaches reports 0. *)

module Driver = Oclick_runtime.Driver
module Hooks = Oclick_runtime.Hooks
module Spsc = Oclick_runtime.Spsc
module Obs = Oclick_obs
module Packet = Oclick_packet.Packet
module Pool = Packet.Pool
module Checksum = Oclick_packet.Checksum
module Dir24_8 = Oclick_lpm.Dir24_8
module Runner = Oclick_parallel.Runner

(* --- spans, kept in memory and written out at exit --- *)

module Span = struct
  let names = [| "burst"; "gen.inject"; "lpm.update"; "runtime.run"; "gen.drain_check" |]
  let burst = 0
  let inject = 1
  let update = 2
  let run = 3
  let drain = 4
  let cap = 1 lsl 20

  type t = {
    name : int array;
    start : int array;
    stop : int array;
    parent : int array;
    window : int array;
    mutable n : int;
  }

  let create () =
    let a () = Array.make cap 0 in
    { name = a (); start = a (); stop = a (); parent = a (); window = a (); n = 0 }

  let open_ t name ~parent ~window =
    if t.n >= cap then -1
    else begin
      let i = t.n in
      t.name.(i) <- name;
      t.parent.(i) <- parent;
      t.window.(i) <- window;
      t.start.(i) <- Util.now_ns ();
      t.n <- i + 1;
      i
    end

  let close t i = if i >= 0 then t.stop.(i) <- Util.now_ns ()
  let dur t i = t.stop.(i) - t.start.(i)

  (* Per name: (total, self) nanoseconds, self being the span's time not
     covered by its children. *)
  let totals t =
    let child = Array.make t.n 0 in
    for i = 0 to t.n - 1 do
      let p = t.parent.(i) in
      if p >= 0 then child.(p) <- child.(p) + dur t i
    done;
    let total = Array.make (Array.length names) 0 and self = Array.make (Array.length names) 0 in
    for i = 0 to t.n - 1 do
      total.(t.name.(i)) <- total.(t.name.(i)) + dur t i;
      self.(t.name.(i)) <- self.(t.name.(i)) + dur t i - child.(i)
    done;
    (total, self)

  let write t path =
    let oc = open_out path in
    output_string oc "id\tname\tstart_ns\tend_ns\tparent\twindow\n";
    for i = 0 to t.n - 1 do
      Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i names.(t.name.(i)) t.start.(i) t.stop.(i)
        t.parent.(i) t.window.(i)
    done;
    close_out oc
end

(* The ledger's clock stands still while the benchmark works between
   router runs, so that time is not charged to whichever element saw
   the last event of a run. *)
type vclock = { mutable paused_at : int; mutable paused : int }

let vclock () = { paused_at = -1; paused = 0 }
let vnow vc () = Util.now_ns () - vc.paused
let pause vc = vc.paused_at <- Util.now_ns ()

let resume vc =
  if vc.paused_at >= 0 then vc.paused <- vc.paused + (Util.now_ns () - vc.paused_at);
  vc.paused_at <- -1

let traced_burst sp vc ~window (r : Rig.t) c ch =
  let w = r.w in
  let b = Span.open_ sp Span.burst ~parent:(-1) ~window in
  let si = Span.open_ sp Span.inject ~parent:b ~window in
  for _ = 1 to Gen.burst do
    Rig.inject r c ch;
    if w.frames_per_update > 0 && c.Check.injected mod w.frames_per_update = 0 then begin
      let su = Span.open_ sp Span.update ~parent:si ~window in
      Rig.update ch;
      Span.close sp su
    end
  done;
  Span.close sp si;
  let sr = Span.open_ sp Span.run ~parent:b ~window in
  resume vc;
  Rig.run_idle r;
  pause vc;
  Span.close sp sr;
  let sd = Span.open_ sp Span.drain ~parent:b ~window in
  Rig.drain r c (Util.now_ns ());
  Span.close sp sd;
  Span.close sp b

(* --- element classes to lib/ modules --- *)

let layer_of_class = function
  | "PollDevice" | "ToDevice" -> "runtime.device"
  | "Queue" -> "runtime.queue"
  | "LookupIPRoute" | "StaticIPLookup" | "RadixIPLookup" | "LinearIPLookup" -> "lpm"
  | "Classifier" | "IPClassifier" -> "classifier"
  | "CheckIPHeader" | "DecIPTTL" | "FixIPSrc" | "IPGWOptions" | "IPFragmenter" -> "elements.ip"
  | "ARPQuerier" | "ARPResponder" -> "elements.arp"
  | _ -> "elements.other"

let layers =
  [ "runtime.device"; "runtime.queue"; "lpm"; "classifier"; "fdd"; "elements.ip"; "elements.arp"; "elements.other" ]

(* Elements fused into an FDD region run as one decision diagram, so
   their time is the region's. Batched delivery bypasses fused bodies,
   so this applies to scalar (batch 1) workloads only. *)
let fused_members (w : Gen.t) =
  match Oclick_compile.last_stats () with
  | Some st when w.batch = 1 ->
      List.concat_map (fun (rg : Oclick_fdd.region) -> rg.rg_entry :: rg.rg_members) st.st_regions
  | _ -> []

let by_layer (r : Rig.t) ~fused (ledger : Obs.t) =
  let cls = Hashtbl.create 64 in
  for i = 0 to Driver.size r.driver - 1 do
    let e = Driver.element_at r.driver i in
    Hashtbl.replace cls e#index (e#name, e#class_name)
  done;
  let acc = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace acc l 0) layers;
  List.iter
    (fun (s : Obs.stats) ->
      let name, c = Option.value (Hashtbl.find_opt cls s.s_idx) ~default:(s.s_name, s.s_class) in
      let l = if List.mem name fused then "fdd" else layer_of_class c in
      Hashtbl.replace acc l (Hashtbl.find acc l + s.s_wall_ns))
    (Obs.snapshot ledger);
  acc

(* Frames that left the fast path: ICMP errors generated, ARP requests
   answered, bad headers dropped. *)
let slow_path (ledger : Obs.t) =
  List.fold_left
    (fun n (s : Obs.stats) ->
      match s.s_class with
      | "ICMPError" | "ARPResponder" -> n + s.s_in
      | "CheckIPHeader" -> n + s.s_drops
      | _ -> n)
    0 (Obs.snapshot ledger)

(* --- the layer ladder --- *)

(* Median over [reps] passes of the ns per operation of [pass], which
   performs [ops] operations. *)
let ladder ~reps ~ops pass =
  let per = Array.init reps (fun _ ->
      let t0 = Util.now_ns () in
      pass ();
      float_of_int (Util.now_ns () - t0) /. float_of_int ops)
  in
  (Util.median per, reps * ops)

let sink = ref 0

let ladder_lpm (w : Gen.t) =
  if w.routes = [||] then None
  else begin
    let t = Dir24_8.create () in
    Array.iter
      (fun (rt : Gen.route) ->
        ignore
          (Dir24_8.add t ~addr:rt.addr ~len:rt.len
             ~gw:(if rt.gw >= 0 then Gen.nb_ip rt.gw else 0) ~port:(rt.port + 1)))
      w.routes;
    let dsts = w.fr_dst in
    let n = Array.length dsts in
    let scalar =
      ladder ~reps:7 ~ops:n (fun () ->
          for i = 0 to n - 1 do
            sink := !sink + Dir24_8.lookup t dsts.(i)
          done)
    in
    let chunk = 32 in
    let out = Array.make chunk 0 and buf = Array.make chunk 0 in
    let nb = n / chunk * chunk in
    let batch =
      ladder ~reps:7 ~ops:nb (fun () ->
          let i = ref 0 in
          while !i < nb do
            Array.blit dsts !i buf 0 chunk;
            sink := !sink + Dir24_8.lookup_batch t buf out chunk;
            i := !i + chunk
          done)
    in
    Some (scalar, batch)
  end

let ladder_checksum (w : Gen.t) =
  let hdrs =
    Array.of_list
      (List.filter_map
         (fun (s : string) -> if Char.code s.[12] = 8 && Char.code s.[13] = 0 then Some (Bytes.of_string s) else None)
         (Array.to_list w.tpl))
  in
  let n = Array.length hdrs in
  ladder ~reps:7 ~ops:n (fun () ->
      for i = 0 to n - 1 do
        sink := !sink + Checksum.checksum hdrs.(i) ~pos:14 ~len:20
      done)

let ladder_pool (w : Gen.t) =
  let pool = Pool.create ~capacity:Rig.pool_capacity () in
  let lens = Array.map String.length w.tpl in
  let n = Array.length lens in
  ladder ~reps:7 ~ops:n (fun () ->
      for i = 0 to n - 1 do
        Pool.recycle pool (Pool.alloc pool lens.(i))
      done)

(* One frame through an in-memory device and back: injected, received
   by the router's side in batches of 32, transmitted and collected. *)
let ladder_device (w : Gen.t) =
  let pkts = Array.map Packet.of_string w.tpl in
  let n = Array.length pkts in
  let d = new Oclick_runtime.Netdevice.queue_device "ladder" ~tx_capacity:n () in
  let batch = Array.make 32 pkts.(0) and out = Array.make 256 pkts.(0) in
  ladder ~reps:7 ~ops:n (fun () ->
      Array.iter d#inject pkts;
      let rec rx () =
        let k = d#rx_batch batch in
        for i = 0 to k - 1 do
          if not (d#tx batch.(i)) then Util.die "ladder: device TX ring full"
        done;
        if k > 0 then rx ()
      in
      rx ();
      while d#collect_into out > 0 do () done)

(* One packet handed from this domain to a consumer domain through an
   SPSC ring, per operation. *)
let ladder_spsc (w : Gen.t) =
  let pkts = Array.init 1024 (fun i -> Packet.of_string w.tpl.(i)) in
  let n = 1 lsl 20 in
  ladder ~reps:3 ~ops:n (fun () ->
      let ring = Spsc.create ~dummy:pkts.(0) 1024 in
      let consumer =
        Domain.spawn (fun () ->
            let got = ref 0 and dst = Array.make 64 pkts.(0) in
            while !got < n do
              got := !got + Spsc.pop_into ring dst 64
            done)
      in
      for i = 0 to n - 1 do
        while not (Spsc.push ring pkts.(i land 1023)) do
          Domain.cpu_relax ()
        done
      done;
      Domain.join consumer)

(* --- the run --- *)

let pool_stats (r : Rig.t) =
  match r.pool with
  | Some pl ->
      let s = Pool.stats pl in
      (s.st_allocs + s.st_reuses, s.st_heap_bufs)
  | None -> (0, 0)

(* The cost of one multi-domain call with nothing to do: the workload's
   config partitioned across two domains by Runner, and
   [Runner.run_until_idle] timed on empty devices. *)
let parallel_call_ms (w : Gen.t) =
  let devices =
    List.init w.nports (fun i ->
        (new Oclick_runtime.Netdevice.queue_device (Printf.sprintf "eth%d" i) () :> Oclick_runtime.Netdevice.t))
  in
  let graph = Rig.ok "parse" (Oclick_graph.Router.parse_string w.config) in
  let run =
    Rig.ok "Runner.create"
      (Runner.create ~devices ~batch:w.batch ~pool:w.pool ~fuse:true ~domains:2 graph)
  in
  Util.median
    (Array.init 21 (fun _ ->
         let t0 = Util.now_ns () in
         if not (Runner.run_until_idle run) then Util.die "Runner did not go idle";
         Util.ms_of_ns (Util.now_ns () - t0)))

let sum_stat r cls key = List.fold_left (fun a e -> a + Rig.stat e key) 0 (Rig.elements_of_class r cls)

let run (w : Gen.t) ~seed ~seconds =
  let probe0 = Util.stall_probe 200 in
  let r, times = Rig.setups w (5 * Rig.setups_per_cycle w) in
  let med f = Util.median (Array.of_list (List.map f times)) *. 1e3 in
  let parse_ms = med (fun s -> s.Rig.parse_s)
  and inst_ms = med (fun s -> s.Rig.instantiate_s)
  and fuse_ms = med (fun s -> s.Rig.fuse_s) in
  let regions, nodes =
    match Oclick_compile.last_stats () with
    | Some st ->
        ( List.length st.st_regions,
          List.fold_left (fun a (rg : Oclick_fdd.region) -> a + rg.rg_nodes) 0 st.st_regions )
    | None -> (0, 0)
  in
  let fused = fused_members w in
  Rig.prime r;
  let ch = Rig.churn () in
  Rig.attach_churn ch r;
  (* The traced router: the same config with the ledger installed. *)
  let vc = vclock () in
  let ledger = Obs.create ~recycles:w.pool () in
  let r2, _ = Rig.setups ~hooks:(Obs.hooks ~now:(vnow vc) ~wall:true ledger Hooks.null) w 1 in
  pause vc;
  Rig.prime r2;
  let ch2 = Rig.churn () in
  Rig.attach_churn ch2 r2;
  Obs.reset ledger;
  let arp_q0 = sum_stat r2 "ARPQuerier" "queries" in
  let c = Check.create w in
  let sp = Span.create () in
  (* Untraced and traced closed loops alternate, so that the price of
     tracing is not confounded with drift in the host's speed. *)
  let cl = Loops.closed () and tr = Loops.closed () in
  let words = ref 0. and allocs = ref 0 and heap_bufs = ref 0 in
  let slice = 0.1 *. seconds in
  for i = 1 to 4 do
    let w0 = Gc.minor_words () and a0, h0 = pool_stats r in
    Loops.closed_loop cl r c ch ~seconds:slice ~window_s:0.25 ~warmup_s:(if i = 1 then 0.2 else 0.);
    let a1, h1 = pool_stats r in
    words := !words +. (Gc.minor_words () -. w0);
    allocs := !allocs + (a1 - a0);
    heap_bufs := !heap_bufs + (h1 - h0);
    Loops.closed_loop ~burst:(traced_burst sp vc) tr r2 c ch2 ~seconds:slice ~window_s:0.25
      ~warmup_s:(if i = 1 then 0.2 else 0.)
  done;
  let op = Loops.opened ~seconds:(0.15 *. seconds) in
  Loops.open_loop op r c ch ~seconds:(0.15 *. seconds) ~window_s:0.25 ~rate_kpps:Gen.rate_kpps ~warmup_s:0.1;
  let queues = Rig.elements_of_class r "Queue" in
  let highwater = List.fold_left (fun a q -> max a (Rig.stat q "highwater")) 0 queues in
  let qdrops = sum_stat r "Queue" "drops" in
  let trie_mb, leaf_blocks =
    match Driver.element r.driver "rt" with
    | Some rt -> (float_of_int (Rig.stat rt "trie_bytes") /. 1048576., Rig.stat rt "leaf_blocks")
    | None -> (0., 0)
  in
  let upd_p90 =
    if ch.Rig.times.Util.len > 0 then List.hd (Util.percentiles (Util.to_floats ch.Rig.times) [ 0.9 ]) /. 1e3
    else 0.
  in
  let arp_q = sum_stat r2 "ARPQuerier" "queries" - arp_q0 in
  let layer_ns = by_layer r2 ~fused ledger in
  let untraced_kpps = Util.best (Array.of_list cl.Loops.kpps) in
  let traced_kpps = Util.best (Array.of_list tr.Loops.kpps) in
  let frames = tr.Loops.c_frames in
  let per_frame ns = float_of_int ns /. float_of_int (max 1 frames) in
  let total, self = Span.totals sp in
  let measured = per_frame total.(Span.burst) in
  let gen_ns = per_frame (self.(Span.inject) + self.(Span.drain)) in
  let upd_ns = per_frame total.(Span.update) in
  let run_ns = per_frame total.(Span.run) in
  let layer l = per_frame (Hashtbl.find layer_ns l) in
  let ledger_sum = List.fold_left (fun a l -> a +. layer l) 0. layers in
  let residual = run_ns -. ledger_sum in
  let lpm = ladder_lpm w in
  let cks_ns, cks_n = ladder_checksum w in
  let pool_ns, pool_n = ladder_pool w in
  let spsc_ns, spsc_n = ladder_spsc w in
  let dev_ns, dev_n = ladder_device w in
  let call_ms = parallel_call_ms w in
  let probe1 = Util.stall_probe 200 in
  let spans_path = Printf.sprintf "perfbench/out/spans-%s-seed%d.tsv" w.name seed in
  (try
     if not (Sys.file_exists "perfbench/out") then Sys.mkdir "perfbench/out" 0o755;
     Span.write sp spans_path
   with Sys_error e -> Printf.printf "diag spans not written: %s\n" e);
  Report.host_line ();
  Report.stall_line "before" probe0;
  Report.stall_line "after" probe1;
  Printf.printf "reconcile: traced %.1f ns/frame over %d frames (%d spans in %s)\n" measured frames
    sp.Span.n spans_path;
  Printf.printf "reconcile:   gen (inject + drain/check) %8.1f ns/frame\n" gen_ns;
  Printf.printf "reconcile:   lpm.update                %8.1f ns/frame\n" upd_ns;
  Printf.printf "reconcile:   router (runtime.run)      %8.1f ns/frame\n" run_ns;
  List.iter (fun l -> Printf.printf "reconcile:     %-22s %8.1f ns/frame\n" l (layer l)) layers;
  Printf.printf "reconcile:     residual (driver, unattributed) %8.1f ns/frame\n" residual;
  Printf.printf "reconcile: untraced %.1f kpps, traced %.1f kpps\n" untraced_kpps traced_kpps;
  (match lpm with
  | Some ((s, sn), (b, bn)) ->
      Printf.printf "ladder: Dir24_8.lookup %.1f ns (n=%d); lookup_batch %.1f ns/addr (n=%d)\n" s sn b bn
  | None -> Printf.printf "ladder: no route table in this workload\n");
  Printf.printf
    "ladder: Checksum.checksum 20 B %.1f ns (n=%d); Pool alloc+recycle %.1f ns (n=%d); Spsc handoff %.1f ns (n=%d)\n"
    cks_ns cks_n pool_ns pool_n spsc_ns spsc_n;
  Printf.printf "ladder: queue_device inject+rx_batch+tx+collect_into %.1f ns (n=%d)\n" dev_ns dev_n;
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let lpm_s, lpm_b = match lpm with Some ((s, _), (b, _)) -> (s, b) | None -> (0., 0.) in
  Report.emit c ~updates:(ch.Rig.times.Util.len + ch2.Rig.times.Util.len)
    ~refused:(ch.Rig.refused + ch2.Rig.refused)
    [
      ("lang.parse_ms", parse_ms, "ms");
      ("runtime.instantiate_ms", inst_ms, "ms");
      ("compile.fuse_ms", fuse_ms, "ms");
      ("fdd.regions", float_of_int regions, "count");
      ("fdd.nodes", float_of_int nodes, "count");
      ("fdd.ns_per_pkt", layer "fdd", "ns");
      ("classifier.ns_per_pkt", layer "classifier", "ns");
      ("lpm.ns_per_pkt", layer "lpm", "ns");
      ("lpm.lookup_ns", lpm_s, "ns");
      ("lpm.lookup_batch_ns", lpm_b, "ns");
      ("lpm.trie_mb", trie_mb, "MB");
      ("lpm.leaf_blocks", float_of_int leaf_blocks, "count");
      ("lpm.update_p90_us", upd_p90, "us");
      ("elements.ip.ns_per_pkt", layer "elements.ip", "ns");
      ("elements.arp.ns_per_pkt", layer "elements.arp", "ns");
      ("elements.other.ns_per_pkt", layer "elements.other", "ns");
      ("elements.arp.queries", float_of_int arp_q, "count");
      ("elements.slowpath_frac", ratio (slow_path ledger) frames, "frac");
      ("packet.checksum_ns", cks_ns, "ns");
      ("packet.alloc_recycle_ns", pool_ns, "ns");
      ("packet.minor_words_per_pkt", !words /. float_of_int (max 1 cl.Loops.c_frames), "words");
      ("packet.heap_fallback_frac", ratio !heap_bufs !allocs, "frac");
      ("runtime.round_ns", ratio op.Loops.round_ns op.Loops.rounds, "ns");
      ("runtime.idle_round_frac", ratio op.Loops.idle_rounds op.Loops.rounds, "frac");
      ("runtime.rounds_per_kpkt", 1000. *. ratio op.Loops.rounds op.Loops.o_frames, "count");
      ("runtime.device.ns_per_pkt", dev_ns, "ns");
      ("runtime.queue.ns_per_pkt", layer "runtime.queue", "ns");
      ("runtime.queue.highwater", float_of_int highwater, "count");
      ("runtime.queue.drops", float_of_int qdrops, "count");
      ("parallel.call_ms", call_ms, "ms");
      ("parallel.spsc_handoff_ns", spsc_ns, "ns");
      ("obs.traced_ns_per_pkt", measured, "ns");
      ("obs.residual_ns_per_pkt", residual, "ns");
      ("obs.overhead_frac", 1. -. (traced_kpps /. untraced_kpps), "frac");
      ("gen.ns_per_pkt", gen_ns, "ns");
      ("gen.late_max_ms", Util.ms_of_ns op.Loops.late_max_ns, "ms");
      ("host.stall_ms", Float.max probe0.Util.longest_gap_ms probe1.Util.longest_gap_ms, "ms");
    ]
