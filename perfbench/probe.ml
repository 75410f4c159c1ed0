(* Host-clock instrumentation owned by the benchmark.

   Everything here observes the simulator from outside: process CPU
   time around the benchmark's own calls, spans recorded at those call
   sites, frames copied off the link tap and scheduler queue depths
   sampled from it.  None of it feeds back into a simulated world, so a
   traced run simulates exactly what an untraced run does (run.py
   checks that the [sim] figures of both agree). *)

module Sched = Uln_engine.Sched
module Time = Uln_engine.Time
module View = Uln_buf.View
module Mbuf = Uln_buf.Mbuf
module Frame = Uln_net.Frame
module Link = Uln_net.Link

(* Process user+system CPU seconds (getrusage): the host cost of the
   simulation, without the time spent waiting for a CPU. *)
let cpu_s () = Sys.time ()

let tracing = ref false

(* --- spans ---------------------------------------------------------------

   pid 1 carries host-clock spans (microseconds since the process
   started measuring), pid 2 the simulated-clock twin of each workload
   operation.  An operation's two spans share its id. *)

type span = {
  s_name : string;
  s_cat : string;
  s_id : int;
  s_parent : int;
  s_pid : int;
  s_ts : float;
  s_dur : float;
}

let span_cap = 20_000
let spans = ref []
let n_spans = ref 0
let origin = Unix.gettimeofday ()
let host_us () = (Unix.gettimeofday () -. origin) *. 1e6

(* Root of the span tree (the whole run) and the current phase under it. *)
let root_id = 1
let phase_id = ref root_id
let last_id = ref root_id

let fresh_id () =
  incr last_id;
  !last_id

let record s =
  if !n_spans < span_cap then begin
    spans := s :: !spans;
    incr n_spans
  end

let phase name f =
  if not !tracing then f ()
  else begin
    let id = fresh_id () in
    let saved = !phase_id in
    phase_id := id;
    let t0 = host_us () in
    let finish () =
      record
        { s_name = name; s_cat = "phase"; s_id = id; s_parent = root_id; s_pid = 1; s_ts = t0;
          s_dur = host_us () -. t0 };
      phase_id := saved
    in
    Fun.protect ~finally:finish f
  end

(* A span around one call into a layer, parented to the current phase. *)
let layer name f =
  if not !tracing then f ()
  else begin
    let id = fresh_id () in
    let t0 = host_us () in
    let r = f () in
    record
      { s_name = name; s_cat = "layer"; s_id = id; s_parent = !phase_id; s_pid = 1; s_ts = t0;
        s_dur = host_us () -. t0 };
    r
  end

type op = { o_id : int; o_name : string; o_host0 : float; o_sim0 : float }

let no_op = { o_id = 0; o_name = ""; o_host0 = 0.; o_sim0 = 0. }

(* One workload operation (a write, a request, a connect): a host span
   and a simulated-clock span with the same id. *)
let op_begin sched name =
  if not !tracing then no_op
  else
    { o_id = fresh_id ();
      o_name = name;
      o_host0 = host_us ();
      o_sim0 = Time.to_us_f (Time.to_ns (Sched.now sched)) }

let op_end sched op =
  if !tracing && op.o_id > 0 then begin
    let sim1 = Time.to_us_f (Time.to_ns (Sched.now sched)) in
    let base =
      { s_name = op.o_name; s_cat = "op"; s_id = op.o_id; s_parent = !phase_id; s_pid = 1;
        s_ts = op.o_host0; s_dur = host_us () -. op.o_host0 }
    in
    record base;
    record { base with s_pid = 2; s_ts = op.o_sim0; s_dur = sim1 -. op.o_sim0 }
  end

let write_chrome file ~workload ~seed =
  let oc = open_out file in
  let ev = ref 0 in
  let emit fmt =
    if !ev > 0 then output_string oc ",\n";
    incr ev;
    Printf.fprintf oc fmt
  in
  output_string oc "{\"traceEvents\": [\n";
  emit
    "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"args\": {\"name\": \
     \"host clock\"}}";
  emit
    "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, \"tid\": 0, \"args\": {\"name\": \
     \"simulated clock\"}}";
  let last_end = ref 0. in
  List.iter
    (fun s ->
      last_end := Float.max !last_end (if s.s_pid = 1 then s.s_ts +. s.s_dur else 0.);
      let args = Printf.sprintf "{\"id\": %d, \"parent\": %d}" s.s_id s.s_parent in
      if s.s_cat = "op" then begin
        (* Operations overlap (pipelined requests, two churn clients),
           so they are async slices keyed by their id. *)
        emit
          "{\"name\": \"%s\", \"cat\": \"op\", \"ph\": \"b\", \"id\": %d, \"pid\": %d, \"tid\": 1, \
           \"ts\": %.3f, \"args\": %s}"
          s.s_name s.s_id s.s_pid s.s_ts args;
        emit
          "{\"name\": \"%s\", \"cat\": \"op\", \"ph\": \"e\", \"id\": %d, \"pid\": %d, \"tid\": 1, \
           \"ts\": %.3f}"
          s.s_name s.s_id s.s_pid (s.s_ts +. s.s_dur)
      end
      else
        emit
          "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 0, \"ts\": \
           %.3f, \"dur\": %.3f, \"args\": %s}"
          s.s_name s.s_cat s.s_ts s.s_dur args)
    (List.rev !spans);
  emit
    "{\"name\": \"%s seed %d\", \"cat\": \"run\", \"ph\": \"X\", \"pid\": 1, \"tid\": 0, \"ts\": \
     0.000, \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": 0}}"
    workload seed !last_end root_id;
  Printf.fprintf oc "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"spans_dropped\": %b}}\n"
    (!n_spans >= span_cap);
  close_out oc

(* --- link tap -------------------------------------------------------------

   Frames are deep-copied as they leave the wire (the stack may recycle
   the buffers), up to a cap, so the replay benches see the exact
   packets this workload produced.  Every tap also samples the
   scheduler's pending-event count. *)

let frame_cap = 4096
let captured : Frame.t list ref = ref []
let n_captured = ref 0
let depth_samples = ref [||]
let n_depth = ref 0

let add_depth d =
  if !n_depth = Array.length !depth_samples then begin
    let bigger = Array.make (Stdlib.max 1024 (2 * !n_depth)) 0 in
    Array.blit !depth_samples 0 bigger 0 !n_depth;
    depth_samples := bigger
  end;
  !depth_samples.(!n_depth) <- d;
  incr n_depth

let copy_frame (f : Frame.t) =
  { f with Frame.payload = Mbuf.of_view (View.copy (Mbuf.flatten f.Frame.payload)) }

(* [on_frame] lets a workload watch the wire too (per-host filter
   populations at each SYN, retransmission detection). *)
let tap ~on_frame sched link =
  if !tracing then
    Link.set_monitor link (fun now f ->
        add_depth (Sched.pending_events sched);
        if !n_captured < frame_cap then begin
          captured := copy_frame f :: !captured;
          incr n_captured
        end;
        on_frame now f)

let captured_frames () = List.rev !captured
let depths () = Array.sub !depth_samples 0 !n_depth
