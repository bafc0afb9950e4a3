(* The two traffic loops.

   Closed loop: inject a burst across the input ports, run the router
   until idle, drain and check, repeat. The router is never idle for
   want of input, so frames per wall second is the rate it sustains.

   Open loop: frames are due on a fixed schedule whatever the router
   does. Each pass injects every frame that has fallen due, runs one
   scheduler round and drains; a frame's latency runs from when it was
   due, so a stall is charged to every frame it delays. The samples are
   also cut into windows, as the closed loop's rates are.

   Both loops add to an accumulator, so a run can alternate them. *)

module Driver = Oclick_runtime.Driver

type closed = {
  mutable kpps : float list;
      (** thousands of correctly delivered frames per wall second, one
          per window, newest first *)
  mutable c_frames : int;
}

let closed () = { kpps = []; c_frames = 0 }

let burst ~window:_ (r : Rig.t) c ch =
  let w = r.w in
  for _ = 1 to Gen.burst do
    Rig.inject r c ch;
    if w.frames_per_update > 0 && c.Check.injected mod w.frames_per_update = 0 then
      Rig.update ch
  done;
  Rig.run_idle r;
  Rig.drain r c (Util.now_ns ())

(* [warmup_s] of untimed bursts, then windows of [window_s] until
   [seconds] have passed. *)
let closed_loop ?(burst = burst) acc r c ch ~seconds ~window_s ~warmup_s =
  let t_warm = Util.now_ns () + int_of_float (warmup_s *. 1e9) in
  while Util.now_ns () < t_warm do
    burst ~window:(-1) r c ch
  done;
  let window_ns = int_of_float (window_s *. 1e9) in
  let t_end = Util.now_ns () + int_of_float (seconds *. 1e9) in
  let f_start = c.Check.injected in
  while Util.now_ns () < t_end do
    let t0 = Util.now_ns () and d0 = c.Check.delivered in
    let window = List.length acc.kpps in
    while Util.now_ns () - t0 < window_ns do
      burst ~window r c ch
    done;
    let dt = Util.now_ns () - t0 in
    acc.kpps <- (float_of_int (c.Check.delivered - d0) /. float_of_int dt *. 1e6) :: acc.kpps
  done;
  acc.c_frames <- acc.c_frames + (c.Check.injected - f_start);
  Check.sweep c

type opened = {
  lat_ns : Util.samples;
  mutable lat_windows : (int * int) list;  (** [lat_ns] index ranges, one per window *)
  mutable late_max_ns : int;  (** how far behind schedule an injection ran *)
  mutable rounds : int;
  mutable idle_rounds : int;
  mutable round_ns : int;  (** total time inside [Driver.run_tasks_once] *)
  mutable o_frames : int;
}

(* [seconds] is the open-loop time the run will spend, so that the sample
   buffer is allocated once, at about its final size, and does not swell
   the peak RSS by doubling. *)
let opened ~seconds =
  {
    lat_ns = Util.samples (int_of_float (seconds *. Gen.rate_kpps *. 1e3));
    lat_windows = [];
    late_max_ns = 0;
    rounds = 0;
    idle_rounds = 0;
    round_ns = 0;
    o_frames = 0;
  }

(* Latencies of frames due in the first [warmup_s] are not recorded.
   The last part-window of a slice is not kept as a window, unless it is
   the only one. *)
let open_loop acc (r : Rig.t) c ch ~seconds ~window_s ~rate_kpps ~warmup_s =
  let w = r.w in
  let period = 1e6 /. rate_kpps in
  let seq0 = c.Check.injected in
  let t0 = Util.now_ns () + 100_000 in
  c.Check.lat <- Some acc.lat_ns;
  c.Check.lat_t0 <- t0;
  c.Check.lat_seq0 <- seq0;
  c.Check.period_ns <- period;
  c.Check.lat_from <- seq0 + int_of_float (warmup_s *. rate_kpps *. 1e3);
  let t_end = t0 + int_of_float (seconds *. 1e9) in
  let n = ref 0 in
  let now = ref (Util.now_ns ()) in
  let window_ns = int_of_float (window_s *. 1e9) in
  let w_t = ref t0 and w_from = ref acc.lat_ns.Util.len and cut = ref false in
  while !now < t_end do
    let rec inject_due () =
      let due = t0 + int_of_float (float_of_int !n *. period) in
      if due <= !now then begin
        if seq0 + !n >= c.Check.lat_from && !now - due > acc.late_max_ns then
          acc.late_max_ns <- !now - due;
        Rig.inject r c ch;
        incr n;
        if w.frames_per_update > 0 && c.Check.injected mod w.frames_per_update = 0 then
          Rig.update ch;
        inject_due ()
      end
    in
    inject_due ();
    let did = Driver.run_tasks_once r.driver in
    let t1 = Util.now_ns () in
    acc.round_ns <- acc.round_ns + (t1 - !now);
    acc.rounds <- acc.rounds + 1;
    if not did then acc.idle_rounds <- acc.idle_rounds + 1;
    Rig.drain r c t1;
    now := Util.now_ns ();
    if !now - !w_t >= window_ns then begin
      acc.lat_windows <- (!w_from, acc.lat_ns.Util.len) :: acc.lat_windows;
      w_from := acc.lat_ns.Util.len;
      w_t := !now;
      cut := true
    end
  done;
  (* A slice shorter than a window is one window. *)
  if not !cut then acc.lat_windows <- (!w_from, acc.lat_ns.Util.len) :: acc.lat_windows;
  Rig.run_idle r;
  Rig.drain r c (Util.now_ns ());
  c.Check.lat <- None;
  acc.o_frames <- acc.o_frames + !n;
  Check.sweep c
