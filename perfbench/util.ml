(* Clock, statistics and host probes shared by every part of the
   benchmark. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let ms_of_ns ns = float_of_int ns /. 1e6

(* Linear interpolation between closest ranks, so that a percentile of
   integer nanosecond samples is not rounded to a sample value. *)
let percentile_sorted (a : float array) q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let percentiles (a : float array) qs =
  let s = Array.copy a in
  Array.sort compare s;
  List.map (percentile_sorted s) qs

let median a = List.hd (percentiles a [ 0.5 ])

(* The highest of a run's window rates. Other tenants of a shared host
   only ever slow the router down, so the best window estimates its
   uncontended rate. *)
let best a = Array.fold_left Float.max neg_infinity a

(* A growable buffer of integer samples; [add] allocates only when the
   buffer doubles, so it can sit on the measured path. *)
type samples = { mutable data : int array; mutable len : int }

let samples cap = { data = Array.make (max 16 cap) 0; len = 0 }

let add s v =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0 in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let to_floats s = Array.init s.len (fun i -> float_of_int s.data.(i))

(* Host stall probe: spin on the clock for [ms] milliseconds, allocating
   nothing, and record every gap between consecutive reads. A gap over
   1 ms is time the host took the CPU away from this process. *)
type stalls = { gaps_over_1ms : int; longest_gap_ms : float }

let stall_probe ms =
  let t_end = now_ns () + (ms * 1_000_000) in
  let prev = ref (now_ns ()) and count = ref 0 and longest = ref 0 in
  while !prev < t_end do
    let t = now_ns () in
    let gap = t - !prev in
    if gap > 1_000_000 then incr count;
    if gap > !longest then longest := gap;
    prev := t
  done;
  { gaps_over_1ms = !count; longest_gap_ms = ms_of_ns !longest }

(* Peak resident set (VmHWM) of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt
