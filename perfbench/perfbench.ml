(* oclick's wall-clock benchmark: one seeded workload per invocation.

     perfbench --workload NAME [--seed N] --seconds S --trace 0|1

   The seed (default 1; 7 is the held-out seed) generates the
   workload's Click configuration and frames (Gen); the router sees
   only those. Frames travel through in-memory
   queue devices. With --trace 0 the run measures the end-to-end
   metrics with observation off; with --trace 1 it is a separate run
   that prints the per-layer metrics (Trace). The last line of standard
   output is one JSON object; earlier lines are diagnostics. The exit
   code is 1 if any delivered frame fails the reference check or the
   router refuses a route update. *)

let usage = "perfbench --workload NAME [--seed N] --seconds S --trace 0|1"

(* A run is [cycles] rounds. Each sets up a fresh router from the config
   text, then alternates closed-loop and open-loop slices [pairs] times,
   so that set-up, both loops and the router's own memory layout are all
   sampled across the run rather than once, and both loops see the same
   mix of the shared host's fast and slow spells. *)
let cycles = 5
let pairs = 4

let timed (w : Gen.t) ~seconds =
  let probe0 = Util.stall_probe 200 in
  let c = Check.create w and ch = Rig.churn () in
  let slice = 0.9 *. seconds /. float_of_int (cycles * pairs * 2) in
  let cl = Loops.closed () and op = Loops.opened ~seconds:(float_of_int (cycles * pairs) *. slice) in
  let times = ref [] in
  for _ = 1 to cycles do
    let r, s = Rig.setups w (Rig.setups_per_cycle w) in
    times := s @ !times;
    Rig.prime r;
    Rig.attach_churn ch r;
    let exits0 = Array.copy c.Check.exits in
    for k = 1 to pairs do
      Loops.closed_loop cl r c ch ~seconds:slice ~window_s:0.25
        ~warmup_s:(if k = 1 then 0.2 else 0.);
      (* The major GC lags promotion under load, so that garbage from the
         generator and the idle polls builds up until a forced collection.
         Collecting after every slice keeps the slices' heap growth from
         adding up in the peak RSS. *)
      Gc.full_major ();
      Loops.open_loop op r c ch ~seconds:slice ~window_s:0.25 ~rate_kpps:Gen.rate_kpps
        ~warmup_s:0.05;
      Gc.full_major ()
    done;
    Array.iteri
      (fun i n ->
        let got = Rig.stat (Rig.element r (Printf.sprintf "x%d" i)) "count" in
        if got <> n - exits0.(i) then
          Check.fail c "stage %d: %d frames left into its exit, expected %d" i got (n - exits0.(i)))
      c.Check.exits;
    ch.Rig.rt <- None
  done;
  (* Read before the statistics below copy the samples. *)
  let peak_rss_mb = Util.peak_rss_mb () in
  let gc = Gc.quick_stat () in
  Printf.printf "diag gc top_heap_mb %.1f MB, %d major collections\n"
    (float_of_int (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.)
    gc.Gc.major_collections;
  let setup_s = Util.median (Array.of_list (List.map Rig.total !times)) in
  let probe1 = Util.stall_probe 200 in
  Report.host_line ();
  Report.stall_line "before" probe0;
  Report.stall_line "after" probe1;
  let windows = Array.of_list (List.rev cl.Loops.kpps) in
  let lat = Util.to_floats op.Loops.lat_ns in
  let lat_p90 =
    match Util.percentiles lat [ 0.5; 0.9; 0.99 ] with
    | [ p50; p90; p99 ] ->
        (* p99 has its ten samples beyond it but measures the host's
           stalls more than the router, so it is not gated. *)
        Printf.printf "diag lat_p50_us over all frames %.3f us\n" (p50 /. 1e3);
        Printf.printf "diag lat_p99_us %.3f us (n=%d)\n" (p99 /. 1e3) (Array.length lat);
        Printf.printf "diag gen.late_max_ms %.3f ms\n" (Util.ms_of_ns op.Loops.late_max_ns);
        p90
    | _ -> assert false
  in
  (* The p50 of the best open-loop window, as fwd_kpps is the best
     closed-loop window: both are the router's cost while the shared
     host lets it run, which varies less from run to run (see the Noise
     section of perfbench/README.md). *)
  let window_p50 =
    Array.of_list
      (List.rev_map (fun (a, b) -> Util.median (Array.sub lat a (b - a))) op.Loops.lat_windows)
  in
  let lat_p50 = Array.fold_left Float.min infinity window_p50 in
  if w.Gen.frames_per_update > 0 then begin
    let u = Util.to_floats ch.Rig.times in
    Printf.printf "metric upd_p50_us %.4f us (n=%d, %d refused)\n" (Util.median u /. 1e3)
      (Array.length u) ch.Rig.refused
  end;
  Printf.printf "diag setup_s samples: %s\n"
    (String.concat " " (List.rev_map (fun s -> Printf.sprintf "%.4f" (Rig.total s)) !times));
  Printf.printf "diag fwd_kpps median window %.3f kpps\n" (Util.median windows);
  Printf.printf "diag fwd_kpps per window: %s\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.0f") windows)));
  Printf.printf "diag lat_p50_us per window: %s\n"
    (String.concat " " (Array.to_list (Array.map (fun v -> Printf.sprintf "%.2f" (v /. 1e3)) window_p50)));
  Report.emit c ~updates:ch.Rig.times.Util.len ~refused:ch.Rig.refused
    [
      ("fwd_kpps", Util.best windows, "kpps");
      ("lat_p50_us", lat_p50 /. 1e3, "us");
      ("lat_p90_us", lat_p90 /. 1e3, "us");
      ("setup_s", setup_s, "s");
      ("peak_rss_mb", peak_rss_mb, "MB");
    ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " Gen.names);
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or the traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !workload = "" || !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  Oclick_elements.register_all ();
  Oclick_compile.register ();
  let t0 = Util.now_ns () in
  let w = Gen.make !workload ~seed:!seed in
  Printf.printf "workload %s seed %d: %d frames generated in %.2f s\n%!" w.Gen.name !seed w.Gen.ring
    (float_of_int (Util.now_ns () - t0) /. 1e9);
  if !trace = 1 then Trace.run w ~seed:!seed ~seconds:(float_of_int !seconds)
  else timed w ~seconds:(float_of_int !seconds)
