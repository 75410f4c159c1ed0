(* One benchmark run of one workload, as a single process:

     perfbench.exe WORKLOAD SEED [--trace FILE]

   Prints one JSON object: host CPU of each world build and of the
   measured phase, the output checks, the simulated end-to-end and
   per-layer figures, and OCaml GC counters.  With --trace it also taps
   the link, records spans, runs the per-layer replay benches and writes
   the spans to FILE as Chrome trace-event JSON.  run.py drives it. *)

module W = Workloads

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
let json_str s = Uln_workload.Jout.str s

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) fields) ^ "}"

let num_obj kvs = json_obj (List.map (fun (k, v) -> (k, json_float v)) kvs)

let words_to_mb w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1e6

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let usage () =
  prerr_endline
    ("usage: perfbench.exe WORKLOAD SEED [--trace FILE]\n  workloads: "
    ^ String.concat " " (List.map fst W.all));
  exit 2

let () =
  let workload, seed, trace_file =
    match Array.to_list Sys.argv with
    | [ _; w; s ] -> (w, s, None)
    | [ _; w; s; "--trace"; f ] -> (w, s, Some f)
    | _ -> usage ()
  in
  let run = match List.assoc_opt workload W.all with Some f -> f | None -> usage () in
  let seed = match int_of_string_opt seed with Some s -> s | None -> usage () in
  Probe.tracing := trace_file <> None;
  (* The first calibration run also pays for growing the heap. *)
  ignore (Calib.time ());
  let c0 = Calib.time () in
  let live0 = live_words () in
  let gc0 = Gc.quick_stat () in
  let r = Probe.phase "workload" (fun () -> run ~seed) in
  let gc1 = Gc.quick_stat () in
  let c1 = Calib.time () in
  let retained = live_words () - live0 in
  let layer_host =
    match trace_file with
    | None -> []
    | Some _ -> Replay.metrics r
  in
  let failed = Stdlib.max r.W.failed !W.n_failed in
  let gc =
    [ ("gc.minor_mwords", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6);
      ("gc.promoted_mwords", (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. 1e6);
      ("gc.major_collections", float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
      ("host_peak_heap_mb", words_to_mb gc1.Gc.top_heap_words);
      ("gc.retained_mb_after_run", words_to_mb retained);
      ( "gc.retained_kb_per_conn",
        if r.W.conns = 0 then 0. else words_to_mb retained *. 1000. /. float_of_int r.W.conns ) ]
  in
  (match trace_file with
  | Some f -> Probe.write_chrome f ~workload ~seed
  | None -> ());
  print_endline
    (json_obj
       [ ("workload", json_str workload);
         ("seed", string_of_int seed);
         ("ocaml_version", json_str Sys.ocaml_version);
         ("traced", string_of_bool (trace_file <> None));
         ("attempted", string_of_int r.W.attempted);
         ("failed", string_of_int failed);
         ("failures", "[" ^ String.concat ", " (List.rev_map json_str !W.failures) ^ "]");
         ("setup_s", "[" ^ String.concat ", " (List.map json_float r.W.setup_s) ^ "]");
         ("measure_s", json_float r.W.measure_s);
         ("calib_s", "[" ^ json_float c0 ^ ", " ^ json_float c1 ^ "]");
         ("sim", num_obj r.W.sim);
         ("sim_layers", num_obj r.W.sim_layers);
         ("wire_layers", num_obj (if trace_file = None then [] else r.W.wire_layers));
         ("gc", num_obj gc);
         ("host_layers", num_obj layer_host) ])
