(* Host-clock per-layer benches for the traced run.

   Each bench times the benchmark's own calls into one layer's public
   functions, fed with inputs taken from the workload run just made:
   the frames the link tap copied, the scheduler queue depths it
   sampled, the connection filters the registry installed and the table
   populations they met.  A layer the workload did not exercise gets no
   inputs and reports 0. *)

module Time = Uln_engine.Time
module Sched = Uln_engine.Sched
module Pheap = Uln_engine.Pheap
module Timer_wheel = Uln_engine.Timer_wheel
module View = Uln_buf.View
module Mbuf = Uln_buf.Mbuf
module Bytequeue = Uln_buf.Bytequeue
module Frame = Uln_net.Frame
module Program = Uln_filter.Program
module Demux = Uln_filter.Demux
module Checksum = Uln_proto.Checksum
module Tcp_wire = Uln_proto.Tcp_wire
module W = Workloads

(* CPU spent per bench: enough passes that getrusage's microsecond
   resolution disappears in the total. *)
let min_cpu_s = 0.04

(* Seconds per unit of work, [units] being the work one pass does. *)
let per_unit name ~units f =
  if units <= 0. then 0.
  else
    Probe.layer name (fun () ->
        let t0 = Probe.cpu_s () in
        let passes = ref 0 in
        while !passes = 0 || Probe.cpu_s () -. t0 < min_cpu_s do
          f ();
          incr passes
        done;
        (Probe.cpu_s () -. t0) /. (float_of_int !passes *. units))

let percentile q xs =
  if Array.length xs = 0 then 0
  else int_of_float (Uln_workload.Percentile.percentile q (Array.map float_of_int xs))

(* Pseudo-random increments, fixed so every run replays the same keys. *)
let increments = Array.init 1024 (fun i -> 1 + (i * 7919 mod 1_000_003))

let pheap ~depth =
  let h = Pheap.create () in
  for i = 1 to depth do
    Pheap.insert h ~key:increments.(i land 1023) ~seq:i ()
  done;
  let seq = ref depth in
  per_unit "engine.pheap" ~units:1024. (fun () ->
      for i = 0 to 1023 do
        match Pheap.pop h with
        | Some (k, ()) ->
            incr seq;
            Pheap.insert h ~key:(k + increments.(i)) ~seq:!seq ()
        | None -> ()
      done)

(* Schedule a batch of protocol-style timers and run the wheel until all
   have fired: one schedule plus one firing per unit. *)
let timer_wheel ~granularity =
  let n = 1024 in
  per_unit "engine.timer_wheel" ~units:(float_of_int n) (fun () ->
      let tw = Timer_wheel.create ~granularity () in
      let fired = ref 0 in
      for i = 0 to n - 1 do
        ignore (Timer_wheel.schedule tw ~after:(Time.ns (increments.(i) * 3000)) (fun () -> incr fired))
      done;
      let t = ref 0 in
      while !fired < n do
        t := !t + granularity;
        Timer_wheel.advance_to tw (Time.of_ns !t)
      done)

(* Two effect threads of a private scheduler handing control back and
   forth: one suspend and one wake per unit. *)
let thread_switch () =
  let n = 5000 in
  per_unit "engine.thread_switch" ~units:(float_of_int (2 * n)) (fun () ->
      let s = Sched.create () in
      let wake_a = ref (fun () -> ()) and wake_b = ref (fun () -> ()) in
      Sched.spawn s (fun () ->
          for _ = 1 to n do
            Sched.suspend (fun w -> wake_b := w);
            !wake_a ()
          done);
      Sched.spawn s (fun () ->
          for _ = 1 to n do
            !wake_b ();
            Sched.suspend (fun w -> wake_a := w)
          done);
      Sched.run s)

let kb views = float_of_int (List.fold_left (fun a v -> a + View.length v) 0 views) /. 1024.

let bytequeue payloads =
  let q = Bytequeue.create () in
  per_unit "buf.bytequeue" ~units:(kb payloads) (fun () ->
      List.iter (Bytequeue.push q) payloads;
      List.iter
        (fun v ->
          let len = View.length v in
          ignore (Bytequeue.peek_sum q ~off:0 ~len);
          Bytequeue.drop q len)
        payloads)

(* A header view chained in front of each payload, as the transmit path
   builds segments, flattened into one contiguous buffer. *)
let flatten payloads =
  let header = View.create 40 in
  let chains = List.map (fun v -> Mbuf.prepend header (Mbuf.of_view v)) payloads in
  per_unit "buf.flatten" ~units:(kb payloads) (fun () ->
      List.iter (fun m -> ignore (Mbuf.flatten m)) chains)

let checksum (segs : Wire.tcp list) =
  let units = float_of_int (List.fold_left (fun a t -> a + Mbuf.length t.Wire.segment) 0 segs) /. 1024. in
  per_unit "proto.checksum" ~units (fun () ->
      List.iter (fun t -> ignore (Checksum.of_mbuf t.Wire.segment)) segs)

let tcp_decode (segs : Wire.tcp list) =
  per_unit "proto.tcp_decode" ~units:(float_of_int (List.length segs)) (fun () ->
      List.iter
        (fun t -> ignore (Tcp_wire.decode ~src_ip:t.Wire.src_ip ~dst_ip:t.Wire.dst_ip t.Wire.segment))
        segs)

let tcp_encode (segs : Wire.tcp list) =
  let decoded =
    List.filter_map
      (fun t ->
        Option.map
          (fun s -> (t, s))
          (Tcp_wire.decode ~src_ip:t.Wire.src_ip ~dst_ip:t.Wire.dst_ip t.Wire.segment))
      segs
  in
  per_unit "proto.tcp_encode" ~units:(float_of_int (List.length decoded)) (fun () ->
      List.iter
        (fun (t, s) -> ignore (Tcp_wire.encode ~src_ip:t.Wire.src_ip ~dst_ip:t.Wire.dst_ip s))
        decoded)

let to_wire frames =
  per_unit "netsim.to_wire" ~units:(float_of_int (List.length frames)) (fun () ->
      List.iter (fun f -> ignore (Frame.to_wire f)) frames)

let budget = Uln_core.Calibration.filter_cycle_budget

let table () = Demux.create ~mode:Demux.Interpreted ~budget ()

(* Software demultiplexing of the frames that took the software path
   (BQI 0), each against its destination host's table: ARP plus a
   connection filter per flow seen arriving there, in order of first
   appearance, at most as many as the busiest table ever held. *)
let dispatch frames ~entries_max =
  let tables = Hashtbl.create 4 and flows = Hashtbl.create 64 in
  let work =
    List.filter_map
      (fun (f : Frame.t) ->
        match Wire.tcp f with
        | Some t when f.Frame.bqi = 0 ->
            let table =
              match Hashtbl.find_opt tables t.Wire.dst_ip with
              | Some table -> table
              | None ->
                  let table = table () in
                  ignore (Demux.install table (Program.arp ()) 0);
                  Hashtbl.add tables t.Wire.dst_ip table;
                  table
            in
            let flow = (t.Wire.src_ip, t.Wire.sport, t.Wire.dst_ip, t.Wire.dport) in
            if (not (Hashtbl.mem flows flow)) && Demux.entries table < Stdlib.max 2 entries_max then begin
              Hashtbl.add flows flow ();
              ignore
                (Demux.install table
                   (Program.tcp_conn ~src_ip:t.Wire.src_ip ~dst_ip:t.Wire.dst_ip ~src_port:t.Wire.sport
                      ~dst_port:t.Wire.dport)
                   0)
            end;
            Some (table, Frame.to_wire f)
        | Some _ | None -> None)
      frames
  in
  per_unit "pktfilter.dispatch" ~units:(float_of_int (List.length work)) (fun () ->
      List.iter (fun (t, wire) -> ignore (Demux.dispatch t wire)) work)

(* Filter admission (overlap check + verified install) replayed in the
   workload's order, each at the population its host's table had when
   the registry installed it; older entries retire first, as closed
   connections do.  Table upkeep between installs is included. *)
let admit (installs : W.install list) =
  let hosts = List.sort_uniq compare (List.map (fun (i : W.install) -> i.W.i_host) installs) in
  let pad = ref 0 in
  let pass () =
    List.iter
      (fun h ->
        let t = table () in
        let live = Queue.create () in
        List.iter
          (fun (i : W.install) ->
            if i.W.i_host = h then begin
              while Demux.entries t > i.W.i_population && not (Queue.is_empty live) do
                Demux.remove t (Queue.pop live)
              done;
              while Demux.entries t < i.W.i_population do
                incr pad;
                let p =
                  Program.tcp_conn ~src_ip:i.W.i_ip ~dst_ip:i.W.i_ip ~src_port:(1 + (!pad land 0x3fff))
                    ~dst_port:(40_000 + (!pad lsr 14 land 0x3fff))
                in
                Queue.push (Demux.install_exn t p 0) live
              done;
              ignore (Demux.conflicts t i.W.i_program);
              Queue.push (Demux.install_exn t i.W.i_program 0) live
            end)
          installs)
      hosts
  in
  per_unit "pktfilter.admit" ~units:(float_of_int (List.length installs)) pass

(* Host CPU per completed connect, first and last quarter of the run. *)
let connect_quarters cpu_at =
  let n = Array.length cpu_at in
  if n < 8 then (0., 0.)
  else begin
    let q = n / 4 in
    let mean a b = (cpu_at.(b) -. cpu_at.(a)) /. float_of_int (b - a) in
    (mean 0 q *. 1e6, mean (n - 1 - q) (n - 1) *. 1e6)
  end

let metrics (result : W.result) =
  let frames = Probe.captured_frames () in
  let segs = List.filter_map Wire.tcp frames in
  let payloads =
    List.filter_map
      (fun t ->
        if t.Wire.data_len = 0 then None
        else
          let v = Mbuf.flatten t.Wire.segment in
          Some (View.sub v (View.length v - t.Wire.data_len) t.Wire.data_len))
      segs
  in
  let depths = Probe.depths () in
  let q1, q4 = connect_quarters result.W.connect_cpu in
  let ns x = x *. 1e9 in
  Probe.phase "replay" (fun () ->
      [ ("engine.pheap_ns_per_op", ns (pheap ~depth:(Stdlib.max 1 (percentile 0.5 depths))));
        ("engine.queue_depth_p99", float_of_int (percentile 0.99 depths));
        ("engine.timer_ns_per_op", ns (timer_wheel ~granularity:result.W.timer_granularity));
        ("engine.thread_switch_ns", ns (thread_switch ()));
        ("buf.bytequeue_ns_per_kb", ns (bytequeue payloads));
        ("buf.flatten_ns_per_kb", ns (flatten payloads));
        ("proto.checksum_ns_per_kb", ns (checksum segs));
        ("proto.tcp_decode_ns_per_seg", ns (tcp_decode segs));
        ("proto.tcp_encode_ns_per_seg", ns (tcp_encode segs));
        ("netsim.to_wire_ns_per_frame", ns (to_wire frames));
        ( "pktfilter.dispatch_ns_per_frame",
          ns (dispatch frames ~entries_max:result.W.entries_max) );
        ("pktfilter.admit_us_per_install", admit result.W.installs *. 1e6);
        ("pktfilter.installs", float_of_int (List.length result.W.installs));
        ("pktfilter.entries_max", float_of_int result.W.entries_max);
        ("core.connect_host_us_q1", q1);
        ("core.connect_host_us_q4", q4) ])
