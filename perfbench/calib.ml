(* Host-speed calibration: a fixed kernel shaped like the simulator's
   own work (an event queue of closures, short-lived records, a
   long-lived table, byte copies), but sharing none of its code, so a
   change to the simulator cannot move it.  Timed in the same process as
   the workload it calibrates. *)

module M = Map.Make (Int)

let kernel () =
  let table = Hashtbl.create 4096 in
  let queue = ref M.empty in
  let push at f =
    queue := M.update at (function None -> Some [ f ] | Some l -> Some (f :: l)) !queue
  in
  let src = Bytes.make 1500 'x' and dst = Bytes.create 1500 in
  let acc = ref 0 in
  let rec event i () =
    Hashtbl.replace table (i land 8191) (i, [ i; i + 1 ]);
    if i land 7 = 0 then begin
      Bytes.blit src 0 dst 0 1500;
      acc := !acc + Char.code (Bytes.get dst (i mod 1500))
    end;
    if i < 150_000 then begin
      push (i + 1 + (i * 7919 land 63)) (event (i + 1));
      if i land 3 = 0 then push (i + 100) (fun () -> acc := !acc + 1)
    end
  in
  push 0 (event 0);
  let rec run () =
    match M.min_binding_opt !queue with
    | None -> ()
    | Some (at, fs) ->
        queue := M.remove at !queue;
        List.iter (fun f -> f ()) (List.rev fs);
        run ()
  in
  run ();
  !acc

let time () =
  let t0 = Sys.time () in
  ignore (Sys.opaque_identity (kernel ()));
  Sys.time () -. t0
