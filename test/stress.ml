(* Fresh-seed stress run of the qcheck properties, driven by
   `dune build @stress`: runs each test binary named on the command
   line under [-n] fresh QCHECK_SEED values, prints every failing seed
   with the command that reproduces it and the failing cases'
   counterexamples, and exits 1 if any run failed.
   A passing `dune runtest` is cached and draws one seed per property,
   so a property that fails on a few inputs in a hundred shows up here,
   not there. *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let () =
  let runs = ref 20 and bins = ref [] in
  Arg.parse
    [ ("-n", Arg.Set_int runs, "N fresh seeds per binary (default 20)") ]
    (fun b -> bins := b :: !bins)
    "stress [-n N] TEST.exe...";
  Random.self_init ();
  let failed = ref 0 in
  List.iter
    (fun bin ->
      let bin = if Filename.is_implicit bin then Filename.concat "." bin else bin in
      let bad = ref 0 in
      for _ = 1 to !runs do
        let cmd = Printf.sprintf "QCHECK_SEED=%d %s" (Random.int 1_000_000_000) bin in
        let log = Filename.temp_file "stress" ".log" in
        if Sys.command (Printf.sprintf "%s > %s 2>&1" cmd (Filename.quote log)) <> 0 then begin
          incr bad;
          Printf.printf "FAIL: %s\n" cmd;
          (* The failing cases and their counterexamples, once each. *)
          In_channel.with_open_text log In_channel.input_lines
          |> List.filter (fun l -> contains l "[FAIL]" || contains l "cases:")
          |> List.sort_uniq compare
          |> List.iter (Printf.printf "  %s\n")
        end;
        Sys.remove log
      done;
      Printf.printf "%s: %d of %d seeds failed\n%!" bin !bad !runs;
      failed := !failed + !bad)
    (List.rev !bins);
  if !failed > 0 then exit 1
