module Sched = Uln_engine.Sched
module Time = Uln_engine.Time
module Mailbox = Uln_engine.Mailbox
module Stats = Uln_engine.Stats

type ('req, 'resp) t = {
  sched : Sched.t;
  cpu : Cpu.t;
  costs : Costs.t;
  name : string;
  box : ('req * int * ('resp -> unit)) Mailbox.t;
  completed : Stats.Counter.t;
}

let create sched cpu costs ~name =
  { sched;
    cpu;
    costs;
    name;
    box = Mailbox.create ();
    completed = Stats.Counter.create (name ^ ".ipc_calls") }

let name t = t.name

let transfer_cost t size =
  Time.span_add t.costs.Costs.ipc_fixed (Time.ns (size * t.costs.Costs.ipc_per_byte_ns))

let handle_one t handler (req, _size, reply) =
  (* Dispatch latency before the server runs, then the switch itself. *)
  Sched.sleep t.sched t.costs.Costs.wakeup_latency;
  Cpu.use t.cpu t.costs.Costs.context_switch;
  let resp, resp_size = handler req in
  Cpu.use t.cpu (transfer_cost t resp_size);
  reply resp

let serve t handler =
  let rec loop () =
    handle_one t handler (Mailbox.recv t.box);
    loop ()
  in
  Sched.spawn t.sched ~name:(t.name ^ ".server") loop

(* One-way messages: the server consumes the request and sends nothing
   back, so no reply transfer is charged and the (unit) promise resolves
   as soon as the handler finishes. *)
let serve_oneway (t : ('req, unit) t) handler =
  let rec loop () =
    let req, _size, reply = Mailbox.recv t.box in
    Sched.sleep t.sched t.costs.Costs.wakeup_latency;
    Cpu.use t.cpu t.costs.Costs.context_switch;
    handler req;
    reply ();
    loop ()
  in
  Sched.spawn t.sched ~name:(t.name ^ ".server") loop

let serve_concurrent t handler =
  let rec loop () =
    let msg = Mailbox.recv t.box in
    Sched.spawn t.sched ~name:(t.name ^ ".worker") (fun () -> handle_one t handler msg);
    loop ()
  in
  Sched.spawn t.sched ~name:(t.name ^ ".server") loop

let call t ~size req =
  Cpu.use t.cpu (transfer_cost t size);
  let result = ref None in
  let resume = ref (fun () -> ()) in
  Mailbox.send t.box
    ( req,
      size,
      fun resp ->
        result := Some resp;
        !resume () );
  Sched.suspend (fun wake -> resume := wake);
  (* Client side: dispatch latency and switch back after the reply. *)
  Sched.sleep t.sched t.costs.Costs.wakeup_latency;
  Cpu.use t.cpu t.costs.Costs.context_switch;
  Stats.Counter.incr t.completed;
  match !result with Some r -> r | None -> assert false

(* Pipelined RPC: [post] pays only the request-direction transfer and
   returns immediately; [await] blocks for (and pays the client-side
   reception of) the reply.  Posting several requests before awaiting
   any overlaps the server's processing of each with the client's
   sending of the next. *)

type 'resp promise = { mutable value : 'resp option; mutable waker : (unit -> unit) option }

let post t ~size req =
  Cpu.use t.cpu (transfer_cost t size);
  let p = { value = None; waker = None } in
  Mailbox.send t.box
    ( req,
      size,
      fun resp ->
        p.value <- Some resp;
        match p.waker with Some w -> w () | None -> () );
  p

let await t p =
  (match p.value with
  | Some _ -> ()
  | None -> Sched.suspend (fun wake -> p.waker <- Some wake));
  Sched.sleep t.sched t.costs.Costs.wakeup_latency;
  Cpu.use t.cpu t.costs.Costs.context_switch;
  Stats.Counter.incr t.completed;
  match p.value with Some r -> r | None -> assert false

let calls t = Stats.Counter.value t.completed
