type t = {
  size : int;
  buffers : bytes array; (* slots [0, provisioned) hold real buffers *)
  mutable provisioned : int;
  free_list : int Queue.t; (* returned slots, oldest first *)
  state : bool array; (* true = free *)
  mutable exhausted : int; (* allocs that found the free list empty *)
}

let create ~count ~size =
  if count <= 0 || size <= 0 then invalid_arg "Pool.create: count and size must be positive";
  { size;
    buffers = Array.make count Bytes.empty;
    provisioned = 0;
    free_list = Queue.create ();
    state = Array.make count true;
    exhausted = 0 }

let size t = t.size
let capacity t = Array.length t.buffers
let available t = capacity t - t.provisioned + Queue.length t.free_list
let in_use t = capacity t - available t

let index_of t (v : View.t) =
  let rec go i =
    if i >= t.provisioned then None
    else if t.buffers.(i) == v.View.buffer then Some i
    else go (i + 1)
  in
  go 0

let owns t v = index_of t v <> None

let exhausted t = t.exhausted

(* Slots are handed out in index order, and a freed slot queues behind
   every never-used one, so provisioning the next fresh slot before
   reusing a returned one is the same order a pool built eagerly with
   all slots on its free list would follow. *)
let alloc t =
  if t.provisioned < capacity t then begin
    let i = t.provisioned in
    t.buffers.(i) <- Bytes.make t.size '\000';
    t.provisioned <- i + 1;
    t.state.(i) <- false;
    Some (View.of_bytes t.buffers.(i))
  end
  else
    match Queue.take_opt t.free_list with
    | None ->
        t.exhausted <- t.exhausted + 1;
        None
    | Some i ->
        t.state.(i) <- false;
        Some (View.of_bytes t.buffers.(i))

let free t v =
  match index_of t v with
  | None -> invalid_arg "Pool.free: view does not belong to this pool"
  | Some i ->
      if t.state.(i) then invalid_arg "Pool.free: double free"
      else begin
        t.state.(i) <- true;
        Queue.push i t.free_list
      end
