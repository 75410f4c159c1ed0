(* Simulated-clock counters of one world, read through public accessors.

   Each workload snapshots a world before and after its measured phase;
   the per-layer [sim] metrics sum the worlds' end values (the busiest
   CPU's utilization is taken over the measured phase).
   All of them are deterministic: they must repeat exactly for a given
   workload and seed, traced or not. *)

module Time = Uln_engine.Time
module Sched = Uln_engine.Sched
module Semaphore = Uln_engine.Semaphore
module Stats = Uln_engine.Stats
module Cpu = Uln_host.Cpu
module Machine = Uln_host.Machine
module Link = Uln_net.Link
module World = Uln_core.World
module Netio = Uln_core.Netio
module Registry = Uln_core.Registry

type t = {
  at : Time.t;
  busy_ns : int array;  (** per CPU, all hosts *)
  copy_ns : int;
  checksum_ns : int;
  copy_checksum_ns : int;
  frames : int;
  payload_bytes : int;
  rx_drops : int;
  napi_interrupts : int;
  napi_polls : int;
  rx_wakeups : int;
  rx_frames : int;
  sw_demuxed : int;
  hw_demuxed : int;
  demux_count : int;
  demux_us : float;
  ring_overflows : int;
  sem_contended : int;
  sem_wait_ns : int;
}

let hosts w = List.init (World.num_hosts w) Fun.id

let cpus w =
  List.concat_map (fun h -> Array.to_list (World.machine w h).Machine.cpus) (hosts w)

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let netios w = List.filter_map (World.netio w) (hosts w)

let snapshot w =
  let nics = List.map (World.nic w) (hosts w) in
  let nio = netios w in
  let dists = List.map Netio.demux_cost_dist nio in
  let sems = Semaphore.registered ~sched:(World.sched w) () in
  let cs = cpus w in
  { at = Sched.now (World.sched w);
    busy_ns = Array.of_list (List.map Cpu.busy_ns cs);
    copy_ns = sum Cpu.copy_ns cs;
    checksum_ns = sum Cpu.checksum_ns cs;
    copy_checksum_ns = sum Cpu.copy_checksum_ns cs;
    frames = Link.frames_sent (World.link w);
    payload_bytes = Link.bytes_sent (World.link w);
    rx_drops = sum (fun n -> n.Uln_net.Nic.rx_drops ()) nics;
    napi_interrupts = sum (fun n -> (n.Uln_net.Nic.napi_stats ()).Uln_net.Napi.interrupts) nics;
    napi_polls = sum (fun n -> (n.Uln_net.Nic.napi_stats ()).Uln_net.Napi.polls) nics;
    rx_wakeups = sum Netio.rx_wakeups nio;
    rx_frames = sum Netio.rx_frames nio;
    sw_demuxed = sum Netio.sw_demuxed nio;
    hw_demuxed = sum Netio.hw_demuxed nio;
    demux_count = sum Stats.Dist.count dists;
    demux_us = List.fold_left (fun acc d -> acc +. Stats.Dist.sum d) 0. dists;
    ring_overflows = sum Netio.ring_overflows nio;
    sem_contended = sum (fun s -> s.Semaphore.s_contended) sems;
    sem_wait_ns = sum (fun s -> s.Semaphore.s_total_wait_ns) sems }

let busy_total s = Array.fold_left ( + ) 0 s.busy_ns

(* Busy share of the busiest CPU between two snapshots. *)
let utilization_max a b =
  let elapsed = Time.diff b.at a.at in
  if elapsed <= 0 then 0.
  else begin
    let m = ref 0 in
    Array.iteri (fun i x -> m := Stdlib.max !m (x - a.busy_ns.(i))) b.busy_ns;
    float_of_int !m /. float_of_int elapsed
  end

(* Every world a workload builds, as (start of its measured phase, end
   of its life) snapshots; the counters sum whole lives. *)
type acc = (t * t) list ref

let acc () : acc = ref []
let add (acc : acc) ~measured_from b = acc := (measured_from, b) :: !acc

(* A world whose whole life counts, with no measured window. *)
let add_life acc w =
  let s = snapshot w in
  add acc ~measured_from:s s

let ms_of_ns ns = float_of_int ns /. 1e6

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let layer_metrics (acc : acc) =
  let ends = List.map snd !acc in
  let total f = sum f ends in
  let count f = float_of_int (total f) in
  let demux_count = total (fun s -> s.demux_count) in
  let demux_us = List.fold_left (fun a s -> a +. s.demux_us) 0. ends in
  [ ("cpu.busy_ms", ms_of_ns (total busy_total));
    ("cpu.copy_ms", ms_of_ns (total (fun s -> s.copy_ns)));
    ("cpu.checksum_ms", ms_of_ns (total (fun s -> s.checksum_ns)));
    ("cpu.copy_checksum_ms", ms_of_ns (total (fun s -> s.copy_checksum_ns)));
    ( "cpu.utilization_max",
      List.fold_left (fun m (a, b) -> Float.max m (utilization_max a b)) 0. !acc );
    ("link.frames", count (fun s -> s.frames));
    ("link.payload_mb", count (fun s -> s.payload_bytes) /. 1e6);
    ("nic.rx_drops", count (fun s -> s.rx_drops));
    ("napi.interrupts", count (fun s -> s.napi_interrupts));
    ("napi.polls", count (fun s -> s.napi_polls));
    ("netio.frames_per_wakeup", ratio (total (fun s -> s.rx_frames)) (total (fun s -> s.rx_wakeups)));
    ("netio.sw_demuxed", count (fun s -> s.sw_demuxed));
    ("netio.hw_demuxed", count (fun s -> s.hw_demuxed));
    ( "netio.demux_cycles_mean",
      (* The netio records each demux's charged cost in microseconds;
         expressed here in cycles of the cost model. *)
      if demux_count = 0 then 0.
      else
        demux_us *. 1000.
        /. float_of_int Uln_host.Costs.r3000.Uln_host.Costs.cycle_ns
        /. float_of_int demux_count );
    ("netio.ring_overflows", count (fun s -> s.ring_overflows));
    ("sem.contended", count (fun s -> s.sem_contended));
    ("sem.wait_ms", ms_of_ns (total (fun s -> s.sem_wait_ns))) ]

(* Registry setup legs of the connecting host. *)
let registry_metrics w ~host =
  match World.registry w host with
  | None -> invalid_arg "perfbench: workloads run the user-library organization"
  | Some r ->
      let l = Registry.setup_legs r in
      [ ("registry.leg_port_alloc_us", l.Registry.sl_port_alloc_us);
        ("registry.leg_round_trip_us", l.Registry.sl_round_trip_us);
        ("registry.leg_finish_us", l.Registry.sl_finish_us);
        ("registry.ports_in_use_end", float_of_int (Registry.ports_in_use r)) ]
