(* The four benchmark workloads.

   Each builds its worlds through [Uln_core.World], drives them with
   simulated threads, checks what came out, and reports:
   - host CPU seconds per world build (set-up) and for the measured phase;
   - the end-to-end simulated metrics ([sim_*]);
   - per-layer simulated counters (deterministic);
   - what the traced run needs for its replay benches.

   Inputs come only from the seed: transfer sizes, byte patterns,
   arrival times and start offsets. *)

module Sched = Uln_engine.Sched
module Time = Uln_engine.Time
module Rng = Uln_engine.Rng
module Mailbox = Uln_engine.Mailbox
module Semaphore = Uln_engine.Semaphore
module View = Uln_buf.View
module Program = Uln_filter.Program
module Tcp_params = Uln_proto.Tcp_params
module World = Uln_core.World
module Sockets = Uln_core.Sockets
module Protolib = Uln_core.Protolib
module Netio = Uln_core.Netio
module Registry = Uln_core.Registry
module Organization = Uln_core.Organization
module Percentile = Uln_workload.Percentile
module E = Uln_workload.Experiments

(* A filter the registry installed on a host, with the table population
   it met (sampled from [Netio.demux_entries] as the SYN crossed the
   wire) — the admission replay's input. *)
type install = {
  i_host : int;
  i_ip : Uln_addr.Ip.t;
  i_program : Program.t;
  i_population : int;
}

type result = {
  attempted : int;
  failed : int;
  setup_s : float list;  (** host CPU per world build *)
  measure_s : float;  (** host CPU of the measured phase(s) *)
  sim : (string * float) list;
  sim_layers : (string * float) list;
  wire_layers : (string * float) list;  (** from the link tap: traced runs only *)
  connect_cpu : float array;  (** process CPU at each connect completion *)
  conns : int;
  installs : install list;
  entries_max : int;
  timer_granularity : Time.span;  (** of the TCP parameters the workload runs *)
}

(* --- shared helpers ------------------------------------------------------ *)

let time_cpu f =
  let t0 = Probe.cpu_s () in
  let r = f () in
  (r, Probe.cpu_s () -. t0)

let pcts samples =
  if Array.length samples = 0 then (0., 0.)
  else
    let s = Percentile.summarize samples in
    (s.Percentile.p50, s.Percentile.p99)

let lib w ~host name =
  match World.library w ~host name with
  | Some l -> l
  | None -> invalid_arg "perfbench: workloads run the user-library organization"

let failures = ref []
let n_failed = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr n_failed;
      if List.length !failures < 10 then failures := s :: !failures)
    fmt

let reset_failures () =
  failures := [];
  n_failed := 0

(* Streaming digest over the byte stream, insensitive to how the stream
   is cut into views: 8-byte words folded FNV-style, plus the length. *)
type digest = { mutable h : int; mutable n : int; carry : Bytes.t }

let digest () = { h = 0x4bf29ce484222325; n = 0; carry = Bytes.make 8 '\000' }
let mix d w = d.h <- (d.h lxor w) * 0x100000001b3

let feed d (v : View.t) =
  let b = v.View.buffer and off = v.View.off and len = v.View.len in
  let i = ref 0 in
  while !i < len && d.n land 7 <> 0 do
    Bytes.set d.carry (d.n land 7) (Bytes.get b (off + !i));
    incr i;
    d.n <- d.n + 1;
    if d.n land 7 = 0 then mix d (Int64.to_int (Bytes.get_int64_le d.carry 0))
  done;
  while !i + 8 <= len do
    mix d (Int64.to_int (Bytes.get_int64_le b (off + !i)));
    i := !i + 8;
    d.n <- d.n + 8
  done;
  while !i < len do
    Bytes.set d.carry (d.n land 7) (Bytes.get b (off + !i));
    incr i;
    d.n <- d.n + 1
  done

let finish d =
  let r = d.n land 7 in
  if r <> 0 then begin
    Bytes.fill d.carry r (8 - r) '\000';
    mix d (Int64.to_int (Bytes.get_int64_le d.carry 0))
  end;
  mix d d.n;
  d.h

(* Wire observers for the traced run: retransmissions, and each SYN's
   filter installs on both ends at the population they meet. *)
type watch = { retx : Wire.retx; mutable installs : install list; mutable entries_max : int }

let watch () = { retx = Wire.retx (); installs = []; entries_max = 0 }

let host_of_ip w ip =
  let rec go h =
    if h >= World.num_hosts w then None
    else if Uln_addr.Ip.equal (World.host_ip w h) ip then Some h
    else go (h + 1)
  in
  go 0

let entries w h = match World.netio w h with Some n -> Netio.demux_entries n | None -> 0

let on_frame wt w _now f =
  match Wire.tcp f with
  | None -> ()
  | Some t ->
      Wire.note_retx wt.retx t;
      for h = 0 to World.num_hosts w - 1 do
        wt.entries_max <- Stdlib.max wt.entries_max (entries w h)
      done;
      if t.Wire.syn && not t.Wire.ack then begin
        (* The connecting host filters the server's segments, the
           accepting host the client's. *)
        let add host ~src_ip ~src_port ~dst_ip ~dst_port =
          match host with
          | None -> ()
          | Some h ->
              wt.installs <-
                { i_host = h;
                  i_ip = dst_ip;
                  i_program = Program.tcp_conn ~src_ip ~dst_ip ~src_port ~dst_port;
                  i_population = entries w h }
                :: wt.installs
        in
        add (host_of_ip w t.Wire.src_ip) ~src_ip:t.Wire.dst_ip ~src_port:t.Wire.dport
          ~dst_ip:t.Wire.src_ip ~dst_port:t.Wire.sport;
        add (host_of_ip w t.Wire.dst_ip) ~src_ip:t.Wire.src_ip ~src_port:t.Wire.sport
          ~dst_ip:t.Wire.dst_ip ~dst_port:t.Wire.dport
      end

let tap wt w = Probe.tap ~on_frame:(on_frame wt w) (World.sched w) (World.link w)

let wire_layers wt = [ ("tcp.retransmissions", float_of_int wt.retx.Wire.count) ]

(* Closed-loop workloads run at one rate: it "meets the SLO" when the
   p99 of their operations stays within the workload's limit. *)
let rate_at_slo ~rate ~p99 ~limit_us = if p99 <= limit_us then rate else 0.

(* World builds start from a collected heap, so a build is not charged
   for collecting the garbage of whatever ran before it. *)
let time_setup build =
  Gc.major ();
  time_cpu build

let repeat_setup n build =
  let rec go i acc =
    let w, dt = time_setup build in
    if i = n then (w, List.rev (dt :: acc)) else go (i + 1) (dt :: acc)
  in
  go 1 []

(* Connect from a simulated thread; the latency is read when [connect]
   returns (block_on itself only returns once the world is quiet). *)
let connect w app ~host ~port =
  let sched = World.sched w in
  Sched.block_on sched (fun () ->
      let t0 = Sched.now sched in
      match app.Sockets.connect ~src_port:0 ~dst:(World.host_ip w host) ~dst_port:port with
      | Ok c -> (c, Time.diff (Sched.now sched) t0)
      | Error e -> failwith ("perfbench connect: " ^ e))

(* --- bulk_eth --------------------------------------------------------------

   One user-library TCP connection streams [bulk_bytes] (plus a seed
   share) in 8 KB writes over the 10 Mb/s Ethernet, default TCP
   parameters: the Table 2 cell.  The data path dominates.  A clean
   stream of identical writes reaches the same steady state whatever its
   length, so the seed also trims each write by up to 128 bytes (the
   application's record framing); that moves the segment boundaries
   and with them every simulated figure, by well under 1%. *)

let bulk_bytes = 48_000_000
let bulk_write = 8192
let bulk_setups = 10
let bulk_limit_us = 2e6
let bulk_port = 5001

let pattern_period = 65_537

let pattern seed =
  let rng = Rng.create ~seed:(seed * 7 + 1) in
  let b = Bytes.create (2 * pattern_period) in
  for i = 0 to pattern_period - 1 do
    let c = Char.chr (Rng.int rng 256) in
    Bytes.set b i c;
    Bytes.set b (pattern_period + i) c
  done;
  Bytes.to_string b

let bulk ~seed =
  let rng = Rng.create ~seed in
  let total = bulk_bytes + Rng.int rng 262_144 in
  let bulk_write = bulk_write - Rng.int rng 129 in
  let pat = pattern seed in
  let build () =
    let w = World.create ~seed ~network:World.Ethernet ~org:Organization.User_library () in
    let sink = lib w ~host:1 "sink" and source = lib w ~host:0 "source" in
    let l = Sched.block_on (World.sched w) (fun () -> (Protolib.app sink).Sockets.listen ~port:bulk_port) in
    let conn, connect_ns = connect w (Protolib.app source) ~host:1 ~port:bulk_port in
    (w, sink, l, conn, connect_ns)
  in
  let (w, sink, listener, conn, connect_ns), setups = repeat_setup bulk_setups build in
  let sched = World.sched w in
  let wt = watch () in
  tap wt w;
  let nchunks = (total + bulk_write - 1) / bulk_write in
  let starts = Array.make nchunks 0 in
  let lat = Array.make nchunks 0. in
  let tx = digest () and rx = digest () in
  let received = ref 0 and delivered = ref 0 in
  let first_tx = ref Time.zero and last_rx = ref Time.zero in
  let acks_elided = ref 0 in
  let before = Simstats.snapshot w in
  let ops = Array.make nchunks Probe.no_op in
  let (), measure_s =
    time_cpu (fun () ->
        Sched.spawn sched ~name:"sink" (fun () ->
            let c = listener.Sockets.accept () in
            let rec drain () =
              match c.Sockets.recv_loan ~max:65536 with
              | None -> ()
              | Some v ->
                  feed rx v;
                  received := !received + View.length v;
                  c.Sockets.return_loan v;
                  last_rx := Sched.now sched;
                  while
                    !delivered < nchunks
                    && !received >= Stdlib.min total ((!delivered + 1) * bulk_write)
                  do
                    lat.(!delivered) <- Time.to_us_f (Time.to_ns !last_rx - starts.(!delivered));
                    Probe.op_end sched ops.(!delivered);
                    incr delivered
                  done;
                  drain ()
            in
            drain ();
            acks_elided := (Protolib.rxstats sink).Protolib.rs_acks_elided;
            c.Sockets.close ());
        Sched.block_on sched (fun () ->
            first_tx := Sched.now sched;
            let chunk = View.create bulk_write in
            for k = 0 to nchunks - 1 do
              let len = Stdlib.min bulk_write (total - (k * bulk_write)) in
              let v = if len = bulk_write then chunk else View.sub chunk 0 len in
              View.blit_from_string pat (k * bulk_write mod pattern_period) v 0 len;
              feed tx v;
              starts.(k) <- Time.to_ns (Sched.now sched);
              ops.(k) <- Probe.op_begin sched "write";
              conn.Sockets.send v
            done;
            conn.Sockets.close ();
            conn.Sockets.await_closed ()))
  in
  let after = Simstats.snapshot w in
  let attempted = nchunks in
  let intact = !received = total && finish rx = finish tx in
  if !received <> total then fail "bulk: received %d of %d bytes" !received total
  else if not intact then fail "bulk: content digest differs from the sender's";
  let failed = if intact then nchunks - !delivered else nchunks in
  let span_s = Time.to_sec_f (Time.diff !last_rx !first_tx) in
  let busy = Simstats.busy_total after - Simstats.busy_total before in
  let p50, p99 = pcts lat in
  let acc = Simstats.acc () in
  Simstats.add acc ~measured_from:before after;
  { attempted;
    failed;
    setup_s = setups;
    measure_s;
    sim =
      [ ("sim_goodput_mbps", float_of_int total *. 8. /. span_s /. 1e6);
        ("sim_cpu_ns_per_byte", float_of_int busy /. float_of_int total);
        ("sim_latency_p50_us", p50);
        ("sim_latency_p99_us", p99);
        ( "sim_rps_at_slo",
          rate_at_slo ~rate:(float_of_int nchunks /. span_s) ~p99 ~limit_us:bulk_limit_us );
        ("sim_conns_per_s", 1e9 /. float_of_int connect_ns) ];
    sim_layers =
      Simstats.layer_metrics acc
      @ Simstats.registry_metrics w ~host:0
      @ [ ("protolib.acks_elided", float_of_int !acks_elided) ];
    wire_layers = wire_layers wt;
    connect_cpu = [||];
    conns = bulk_setups;
    installs = List.rev wt.installs;
    entries_max = wt.entries_max;
    timer_granularity = Tcp_params.default.Tcp_params.timer_granularity }

(* --- rpc_an1 ---------------------------------------------------------------

   Open-loop Poisson RPC, 64 B requests and 256 B responses, one server
   over the AN1, coalesced preset with Nagle off.  A fixed ladder of
   offered rates, each in a fresh world; latency is read at the
   reference rate, and the SLO rate is the highest rung whose p99 meets
   [rpc_limit_us] with nothing expired.  Per-message work dominates. *)

let rpc_params = { Tcp_params.coalesced with Tcp_params.nagle = false }
let rpc_rates = [ 400.; 800.; 1200.; 1600. ]
let rpc_ref_rate = 400.
let rpc_requests = 5000
let rpc_req = 64
let rpc_resp = 256
let rpc_limit_us = 20_000.
let rpc_grace = Time.sec 2
let rpc_port = 9

type rung = {
  g_rate : float;
  g_done : int;
  g_p50 : float;
  g_p99 : float;
  g_goodput : float;
  g_cpu_ns_per_byte : float;
  g_connect_ns : int;
}

let read_exactly conn n ~first4 =
  let got = ref 0 in
  (try
     while !got < n do
       match conn.Sockets.recv ~max:(n - !got) with
       | None -> raise Exit
       | Some v ->
           for i = 0 to Stdlib.min 4 (View.length v) - 1 do
             if !got + i < 4 then Bytes.set first4 (!got + i) (Char.chr (View.get_uint8 v i))
           done;
           got := !got + View.length v
     done
   with Exit -> ());
  !got = n

let rpc_rung ~seed ~acc ~wt ~acks idx rate =
  let (w, client, server, conn, connect_ns), setup =
    time_setup (fun () ->
        let w =
          World.create ~seed ~tcp_params:rpc_params ~num_hosts:2 ~network:World.An1
            ~org:Organization.User_library ()
        in
        let sched = World.sched w in
        let server = lib w ~host:1 "rpc-server" and client = lib w ~host:0 "rpc-client" in
        let l = Sched.block_on sched (fun () -> (Protolib.app server).Sockets.listen ~port:rpc_port) in
        Sched.spawn sched ~name:"rpc-server" (fun () ->
            let c = l.Sockets.accept () in
            let buf = View.create rpc_req in
            let rec serve () =
              let got = ref 0 and eof = ref false in
              while (not !eof) && !got < rpc_req do
                match c.Sockets.recv ~max:(rpc_req - !got) with
                | None -> eof := true
                | Some v ->
                    View.blit v 0 buf !got (View.length v);
                    got := !got + View.length v
              done;
              if !eof then c.Sockets.close ()
              else begin
                let size = Int32.to_int (View.get_uint32 buf 4) in
                let reply = View.create size in
                View.fill reply 'r';
                View.set_uint32 reply 0 (View.get_uint32 buf 0);
                c.Sockets.send reply;
                serve ()
              end
            in
            serve ());
        let conn, connect_ns = connect w (Protolib.app client) ~host:1 ~port:rpc_port in
        (w, client, server, conn, connect_ns))
  in
  let sched = World.sched w in
  if idx = 0 then tap wt w;
  let rng = Rng.create ~seed:((seed * 1000) + idx) in
  let mb : (int * Time.t * Probe.op) option Mailbox.t = Mailbox.create () in
  let fifo = Queue.create () in
  let sem = Semaphore.create ~sched () in
  let samples = ref [] and done_ = ref 0 and last_done = ref Time.zero in
  let first4 = Bytes.create 4 in
  Sched.spawn sched ~name:"rpc-send" (fun () ->
      let rec loop () =
        match Mailbox.recv mb with
        | None -> conn.Sockets.close ()
        | Some ((id, _, _) as job) ->
            let v = View.create rpc_req in
            View.fill v 'q';
            View.set_uint32 v 0 (Int32.of_int id);
            View.set_uint32 v 4 (Int32.of_int rpc_resp);
            Queue.push job fifo;
            Semaphore.signal sem;
            conn.Sockets.send v;
            loop ()
      in
      loop ());
  Sched.spawn sched ~name:"rpc-read" (fun () ->
      let rec loop () =
        Semaphore.wait sem;
        match Queue.pop fifo with
        | exception Queue.Empty -> ()
        | id, arrive, op ->
            if read_exactly conn rpc_resp ~first4 then begin
              if Int32.to_int (Bytes.get_int32_be first4 0) = id then begin
                incr done_;
                last_done := Sched.now sched;
                Probe.op_end sched op;
                samples := Time.to_us_f (Time.diff (Sched.now sched) arrive) :: !samples
              end
              else fail "rpc: response to request %d carries id %ld" id (Bytes.get_int32_be first4 0);
              loop ()
            end
            else fail "rpc: short response to request %d" id
      in
      loop ());
  let before = Simstats.snapshot w in
  let started = ref Time.zero in
  let (), measure_s =
    time_cpu (fun () ->
        Sched.block_on sched (fun () ->
            started := Sched.now sched;
            for id = 1 to rpc_requests do
              Mailbox.send mb (Some (id, Sched.now sched, Probe.op_begin sched "request"));
              let u = Float.max 1e-9 (Rng.float rng 1.0) in
              Sched.sleep sched (Time.ns (int_of_float (-.log u /. rate *. 1e9)))
            done;
            let deadline = Time.add (Sched.now sched) rpc_grace in
            while !done_ < rpc_requests && Time.compare (Sched.now sched) deadline < 0 do
              Sched.sleep sched (Time.ms 1)
            done;
            acks :=
              !acks + (Protolib.rxstats client).Protolib.rs_acks_elided
              + (Protolib.rxstats server).Protolib.rs_acks_elided;
            Mailbox.send mb None))
  in
  let after = Simstats.snapshot w in
  Simstats.add acc ~measured_from:before after;
  let bytes = !done_ * (rpc_req + rpc_resp) in
  let span_s = Time.to_sec_f (Time.diff !last_done !started) in
  let busy = Simstats.busy_total after - Simstats.busy_total before in
  let p50, p99 = pcts (Array.of_list !samples) in
  ( { g_rate = rate;
      g_done = !done_;
      g_p50 = p50;
      g_p99 = p99;
      g_goodput = float_of_int bytes *. 8. /. span_s /. 1e6;
      g_cpu_ns_per_byte = float_of_int busy /. float_of_int (Stdlib.max 1 bytes);
      g_connect_ns = connect_ns },
    setup,
    measure_s,
    Simstats.registry_metrics w ~host:0 )

let rpc ~seed =
  let acc = Simstats.acc () and wt = watch () in
  let acks = ref 0 in
  let runs = List.mapi (rpc_rung ~seed ~acc ~wt ~acks) rpc_rates in
  let rungs = List.map (fun (g, _, _, _) -> g) runs in
  let _, _, _, registry = List.nth runs (List.length runs - 1) in
  let reference = List.find (fun g -> g.g_rate = rpc_ref_rate) rungs in
  let slo =
    List.fold_left
      (fun best g ->
        if g.g_done = rpc_requests && g.g_p99 <= rpc_limit_us then Float.max best g.g_rate
        else best)
      0. rungs
  in
  let attempted = rpc_requests * List.length rungs in
  let completed = List.fold_left (fun a g -> a + g.g_done) 0 rungs in
  let connect_total = List.fold_left (fun a g -> a + g.g_connect_ns) 0 rungs in
  { attempted;
    failed = attempted - completed;
    setup_s = List.map (fun (_, s, _, _) -> s) runs;
    measure_s = List.fold_left (fun a (_, _, m, _) -> a +. m) 0. runs;
    sim =
      [ ("sim_goodput_mbps", reference.g_goodput);
        ("sim_cpu_ns_per_byte", reference.g_cpu_ns_per_byte);
        ("sim_latency_p50_us", reference.g_p50);
        ("sim_latency_p99_us", reference.g_p99);
        ("sim_rps_at_slo", slo);
        ("sim_conns_per_s", float_of_int (List.length rungs) *. 1e9 /. float_of_int connect_total)
      ];
    sim_layers =
      Simstats.layer_metrics acc
      @ registry
      @ [ ("protolib.acks_elided", float_of_int !acks) ];
    wire_layers = wire_layers wt;
    connect_cpu = [||];
    conns = List.length rungs;
    installs = List.rev wt.installs;
    entries_max = wt.entries_max;
    timer_granularity = rpc_params.Tcp_params.timer_granularity }

(* --- churn_eth -------------------------------------------------------------

   Two client/server pairs open and close short connections back to
   back over the Ethernet, sequential setup path (the [baseline] rung of
   [Churn.configs]).  Each connection carries a 16-byte hello the server
   checks.  The connection count is fixed: host cost per connect grows
   with the connections already made, so a time-boxed run would measure
   a moving target. *)

let churn_params = List.assoc "baseline" Uln_workload.Churn.configs
let churn_pairs = 2
let churn_per_pair = 128
let churn_setups = 10
let churn_hello = 16
let churn_limit_us = 200_000.
let churn_port = 9000

let churn ~seed =
  let rng = Rng.create ~seed in
  let offsets = Array.init churn_pairs (fun _ -> Time.us (Rng.int rng 5_000)) in
  let build () =
    let w =
      World.create ~seed ~tcp_params:churn_params ~num_hosts:(churn_pairs + 1)
        ~network:World.Ethernet ~org:Organization.User_library ()
    in
    let servers = List.init churn_pairs (fun i -> lib w ~host:(1 + i) (Printf.sprintf "srv%d" i)) in
    let clients = List.init churn_pairs (fun i -> lib w ~host:0 (Printf.sprintf "cli%d" i)) in
    let sched = World.sched w in
    let listeners = Array.make churn_pairs None in
    List.iteri
      (fun i s ->
        Sched.spawn sched ~name:"listen" (fun () ->
            listeners.(i) <- Some ((Protolib.app s).Sockets.listen ~port:(churn_port + i))))
      servers;
    Sched.block_on sched (fun () -> ());
    (w, clients, Array.map Option.get listeners)
  in
  let (w, clients, listeners), setups = repeat_setup churn_setups build in
  let sched = World.sched w in
  let wt = watch () in
  tap wt w;
  let hosts = List.init (World.num_hosts w) Fun.id in
  let ports0 = Option.fold ~none:0 ~some:Registry.ports_in_use (World.registry w 0) in
  let entries0 = List.map (entries w) hosts in
  let conns = churn_pairs * churn_per_pair in
  let lat = Array.make conns 0. and cpu_at = Array.make conns 0. in
  let n = ref 0 and hellos = ref 0 in
  let started = ref Time.zero and ended = ref Time.zero in
  let before = Simstats.snapshot w in
  let (), measure_s =
    time_cpu (fun () ->
        Array.iteri
          (fun i l ->
            Sched.spawn sched ~name:"churn-srv" (fun () ->
                for k = 1 to churn_per_pair do
                  let c = l.Sockets.accept () in
                  let buf = Buffer.create churn_hello in
                  let rec read () =
                    if Buffer.length buf < churn_hello then
                      match c.Sockets.recv ~max:(churn_hello - Buffer.length buf) with
                      | None -> ()
                      | Some v ->
                          Buffer.add_string buf (View.to_string v);
                          read ()
                  in
                  read ();
                  if Buffer.contents buf = Printf.sprintf "hello %02d %07d" i k then incr hellos
                  else fail "churn: pair %d connection %d: bad hello %S" i k (Buffer.contents buf);
                  c.Sockets.close ()
                done))
          listeners;
        Sched.block_on sched (fun () ->
            started := Sched.now sched;
            let remaining = ref churn_pairs and wake = ref (fun () -> ()) in
            List.iteri
              (fun i cl ->
                Sched.spawn sched ~name:"churn-cli" (fun () ->
                    Sched.sleep sched offsets.(i);
                    for k = 1 to churn_per_pair do
                      let op = Probe.op_begin sched "connect" in
                      let t0 = Sched.now sched in
                      match
                        (Protolib.app cl).Sockets.connect ~src_port:0
                          ~dst:(World.host_ip w (1 + i)) ~dst_port:(churn_port + i)
                      with
                      | Error e -> fail "churn: pair %d connect %d: %s" i k e
                      | Ok c ->
                          Probe.op_end sched op;
                          lat.(!n) <- Time.to_us_f (Time.diff (Sched.now sched) t0);
                          cpu_at.(!n) <- Probe.cpu_s ();
                          incr n;
                          c.Sockets.send (View.of_string (Printf.sprintf "hello %02d %07d" i k));
                          c.Sockets.close ()
                    done;
                    decr remaining;
                    if !remaining = 0 then begin
                      ended := Sched.now sched;
                      !wake ()
                    end))
              clients;
            Sched.suspend (fun k -> wake := k);
            (* Let every TIME_WAIT expire before checking that the
               registry and the filter tables are back where they
               started. *)
            Sched.sleep sched (Time.span_scale churn_params.Tcp_params.msl 4)))
  in
  let after = Simstats.snapshot w in
  (* The end state is checked once per host table and once for the
     registry; each leak counts as a failed operation. *)
  let leaks = ref 0 in
  let ports1 = Option.fold ~none:0 ~some:Registry.ports_in_use (World.registry w 0) in
  if ports1 <> ports0 then begin
    incr leaks;
    fail "churn: registry holds %d ports after the run, %d before" ports1 ports0
  end;
  List.iter2
    (fun h e0 ->
      let e1 = entries w h in
      if e1 <> e0 then begin
        incr leaks;
        fail "churn: host %d demux table has %d entries after the run, %d before" h e1 e0
      end)
    hosts entries0;
  let elapsed_s = Time.to_sec_f (Time.diff !ended !started) in
  let busy = Simstats.busy_total after - Simstats.busy_total before in
  let p50, p99 = pcts (Array.sub lat 0 !n) in
  let rate = float_of_int !n /. elapsed_s in
  let acc = Simstats.acc () in
  Simstats.add acc ~measured_from:before after;
  { attempted = conns;
    failed = conns - Stdlib.min !n !hellos + !leaks;
    setup_s = setups;
    measure_s;
    sim =
      [ ("sim_goodput_mbps", float_of_int (!hellos * churn_hello * 8) /. elapsed_s /. 1e6);
        ("sim_cpu_ns_per_byte", float_of_int busy /. float_of_int (Stdlib.max 1 (!hellos * churn_hello)));
        ("sim_latency_p50_us", p50);
        ("sim_latency_p99_us", p99);
        ("sim_rps_at_slo", rate_at_slo ~rate ~p99 ~limit_us:churn_limit_us);
        ("sim_conns_per_s", rate) ];
    sim_layers =
      Simstats.layer_metrics acc
      @ Simstats.registry_metrics w ~host:0
      @ [ ( "protolib.acks_elided",
            float_of_int
              (List.fold_left (fun a l -> a + (Protolib.rxstats l).Protolib.rs_acks_elided) 0 clients) ) ];
    wire_layers = wire_layers wt;
    connect_cpu = Array.sub cpu_at 0 !n;
    conns;
    installs = List.rev wt.installs;
    entries_max = wt.entries_max;
    timer_granularity = churn_params.Tcp_params.timer_granularity }

(* --- paper_tables ----------------------------------------------------------

   Regenerates Tables 2, 3 and 4 and compares them byte for byte, cell by
   cell, against the committed BENCH_table{2,3,4}.json — the only
   workload that runs the in-kernel and single-server organizations.
   Its simulated figures come from one held-out cell per table at a
   seed-drawn size (user library, Ethernet), off the committed grid. *)

let tables_setups = 10
let tables_limit_us = 50_000.
let tables_bulk = 1_500_000

(* The committed files' layout, as the bench harness writes it. *)
let jstr = Uln_workload.Jout.str
let jint = Uln_workload.Jout.int
let jfloat = Uln_workload.Jout.float
let jopt = Uln_workload.Jout.opt

let row_line row =
  "    { " ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (jstr k) v) row) ^ " }"

let t2_rows rows =
  List.map
    (fun (r : E.t2_row) ->
      row_line
        [ ("network", jstr r.E.t2_network); ("system", jstr r.E.t2_system);
          ("size", jint r.E.t2_size); ("mbps", jfloat r.E.t2_mbps); ("paper", jopt r.E.t2_paper) ])
    rows

let t3_rows rows =
  List.map
    (fun (r : E.t3_row) ->
      row_line
        [ ("network", jstr r.E.t3_network); ("system", jstr r.E.t3_system);
          ("size", jint r.E.t3_size); ("rtt_ms", jfloat r.E.t3_rtt_ms);
          ("p50_us", jfloat r.E.t3_rtt.Percentile.p50);
          ("p99_us", jfloat r.E.t3_rtt.Percentile.p99);
          ("p999_us", jfloat r.E.t3_rtt.Percentile.p999); ("paper", jopt r.E.t3_paper) ])
    rows

let t4_rows rows =
  List.map
    (fun (r : E.t4_row) ->
      row_line
        [ ("network", jstr r.E.t4_network); ("system", jstr r.E.t4_system);
          ("setup_ms", jfloat r.E.t4_setup_ms); ("paper", jopt r.E.t4_paper) ])
    rows

let file_text target rows =
  Printf.sprintf "{\n  \"target\": %s,\n  \"rows\": [%s\n  ]\n}\n" (jstr target)
    (String.concat "," (List.map (fun r -> "\n" ^ r) rows))

(* Returns (cells, mismatched cells); rows compare by position. *)
let compare_table target rows =
  let file = Printf.sprintf "BENCH_%s.json" target in
  if not (Sys.file_exists file) then begin
    fail "tables: no committed %s" file;
    (List.length rows, List.length rows)
  end
  else begin
    let committed = In_channel.with_open_bin file In_channel.input_all in
    let committed_rows =
      List.filter_map
        (fun l ->
          if String.length l > 5 && String.sub l 0 5 = "    {" then
            Some (if String.ends_with ~suffix:"," l then String.sub l 0 (String.length l - 1) else l)
          else None)
        (String.split_on_char '\n' committed)
    in
    let rec diff a b =
      match (a, b) with
      | x :: a, y :: b -> (if x = y then 0 else 1) + diff a b
      | rest, [] | [], rest -> List.length rest
    in
    let mismatched = diff rows committed_rows in
    let whole = if file_text target rows = committed then 0 else 1 in
    if mismatched + whole > 0 then
      fail "tables: %s differs from the committed file in %d of %d rows" file mismatched
        (List.length rows);
    (List.length rows, Stdlib.max mismatched whole)
  end

let tables ~seed =
  let rng = Rng.create ~seed in
  (* Near the grid's 4096 B and 512 B cells, off the committed sizes. *)
  let t2_size = 4032 + Rng.int rng 129 in
  let t3_size = 496 + Rng.int rng 33 in
  let build () =
    List.concat_map
      (fun (network, orgs) -> List.map (fun org -> World.create ~seed ~network ~org ()) orgs)
      [ ( World.Ethernet,
          [ Organization.In_kernel; Organization.Single_server `Mapped; Organization.User_library ] );
        (World.An1, [ Organization.In_kernel; Organization.User_library ]) ]
  in
  let _, setups = repeat_setup tables_setups build in
  let cells = ref 0 and bad = ref 0 in
  let check target rows =
    let n, b = compare_table target rows in
    cells := !cells + n;
    bad := !bad + b
  in
  let acc = Simstats.acc () in
  let held_out = ref [] and held_out_failed = ref 0 and registry = ref [] in
  let (), measure_s =
    time_cpu (fun () ->
        Probe.phase "table2" (fun () -> check "table2" (t2_rows (E.table2 ())));
        Probe.phase "table3" (fun () -> check "table3" (t3_rows (E.table3 ())));
        Probe.phase "table4" (fun () -> check "table4" (t4_rows (E.table4 ())));
        (* Held-out cells, one per table. *)
        let held = ref 0 in
        let userlib () =
          World.create ~seed ~network:World.Ethernet ~org:Organization.User_library ()
        in
        let w = userlib () in
        let before = Simstats.snapshot w in
        let b = Uln_workload.Bulk.run ~total_bytes:tables_bulk ~write_size:t2_size w in
        let after = Simstats.snapshot w in
        Simstats.add acc ~measured_from:before after;
        let expected = (tables_bulk + t2_size - 1) / t2_size * t2_size in
        if b.Uln_workload.Bulk.bytes <> expected then begin
          incr held;
          fail "tables: held-out bulk delivered %d of %d bytes" b.Uln_workload.Bulk.bytes expected
        end;
        let w = userlib () in
        let p = Uln_workload.Pingpong.run ~size:t3_size w in
        Simstats.add_life acc w;
        let w = userlib () in
        let setup = Uln_workload.Setup.run w in
        Simstats.add_life acc w;
        registry := Simstats.registry_metrics w ~host:0;
        let rtt = p.Uln_workload.Pingpong.rtt in
        held_out_failed := !held;
        held_out :=
          [ ("sim_goodput_mbps", b.Uln_workload.Bulk.mbps);
            ( "sim_cpu_ns_per_byte",
              float_of_int (Simstats.busy_total after - Simstats.busy_total before)
              /. float_of_int b.Uln_workload.Bulk.bytes );
            ("sim_latency_p50_us", rtt.Percentile.p50);
            ("sim_latency_p99_us", rtt.Percentile.p99);
            ( "sim_rps_at_slo",
              rate_at_slo
                ~rate:(1e9 /. float_of_int p.Uln_workload.Pingpong.avg_rtt)
                ~p99:rtt.Percentile.p99 ~limit_us:tables_limit_us );
            ("sim_conns_per_s", 1e9 /. float_of_int setup.Uln_workload.Setup.avg_setup) ])
  in
  { attempted = !cells + 3;
    failed = !bad + !held_out_failed;
    setup_s = setups;
    measure_s;
    sim = !held_out;
    sim_layers =
      Simstats.layer_metrics acc
      @ !registry
      (* The held-out cells run through [World.app], which keeps its
         library to itself. *)
      @ [ ("protolib.acks_elided", 0.) ];
    wire_layers = [ ("tcp.retransmissions", 0.) ];
    connect_cpu = [||];
    conns = 0;
    installs = [];
    entries_max = 0;
    timer_granularity = Tcp_params.default.Tcp_params.timer_granularity }

let all = [ ("bulk_eth", bulk); ("rpc_an1", rpc); ("churn_eth", churn); ("paper_tables", tables) ]
