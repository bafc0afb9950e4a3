(* Output: diagnostic lines, then the one JSON result line. *)

(* Every digit of a measured value. A percentile of no samples (a run
   whose every frame failed the check) is NaN, which JSON cannot carry;
   it is written as 0 in a result already marked incorrect. *)
let json_number v =
  if Float.is_nan v then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Print the result line and exit: 0 if every delivered frame passed the
   reference check and the router took every route update, 1 otherwise.
   [metrics] are (name, value, unit). *)
let emit (c : Check.t) ~updates ~refused metrics =
  if refused > 0 then Check.fail c "the router refused %d route updates" refused;
  let correct = c.Check.bad = 0 in
  let attempted = max 1 (c.Check.injected + updates) in
  let failed = min attempted (c.Check.lost + c.Check.bad + refused) in
  Printf.printf "metric fail_frac %.6g frac (%d failed of %d attempted)\n"
    (float_of_int failed /. float_of_int attempted)
    failed attempted;
  if not correct then
    Printf.eprintf "perfbench: reference check failed on %d frames; first: %s\n" c.Check.bad
      c.Check.first_bad;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (k, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (json_number v) u)
          metrics));
  exit (if correct then 0 else 1)

let host_line () =
  Printf.printf "host nproc=%d ocaml=%s rev=%s\n" (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (Option.value (Sys.getenv_opt "PERFBENCH_REV") ~default:"unknown")

let stall_line when_ (s : Util.stalls) =
  Printf.printf "diag host.stall %s: %d clock gaps over 1 ms, longest %.3f ms\n" when_
    s.Util.gaps_over_1ms s.Util.longest_gap_ms
