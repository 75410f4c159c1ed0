(* Binary min-heap in flat arrays, specialised to integer-keyed events.

   The event queue is the hottest data structure in the simulator.  Keys,
   sequence numbers and values live in three parallel arrays.  An insert
   links no young node under an older one, and a pop clears the slot it
   vacates, so at a minor collection the queue keeps alive only the
   events still pending: an event inserted and popped between two
   collections is never promoted.  (A pairing heap conses each new node
   onto an older node's child list; the minor collector scans that field
   even after the older node has been popped, so nearly every event
   closure, and the thread continuation it captures, was promoted.)  The
   order is the lexicographic order on [(key, seq)], a strict total
   order, so pop order is fully determined by the inserted pairs. *)

type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable values : 'a option array;
  mutable size : int;
}

let create () = { keys = [||]; seqs = [||]; values = [||]; size = 0 }

let size t = t.size
let is_empty t = t.size = 0

(* Ties on [key] are broken by insertion sequence so that events scheduled
   for the same instant fire in FIFO order — determinism matters for
   reproducible experiments. *)
let precedes t i j =
  let ki = t.keys.(i) and kj = t.keys.(j) in
  ki < kj || (ki = kj && t.seqs.(i) < t.seqs.(j))

let move t ~src ~dst =
  t.keys.(dst) <- t.keys.(src);
  t.seqs.(dst) <- t.seqs.(src);
  t.values.(dst) <- t.values.(src)

let grow t =
  let cap = Stdlib.max 16 (2 * Array.length t.keys) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.size;
    b
  in
  t.keys <- extend t.keys 0;
  t.seqs <- extend t.seqs 0;
  t.values <- extend t.values None

(* Move the entries above slot [i] that [(key, seq)] precedes down one
   level each; return the slot where [(key, seq)] belongs. *)
let rec sift_up t i ~key ~seq =
  if i = 0 then i
  else begin
    let parent = (i - 1) / 2 in
    let kp = t.keys.(parent) in
    if key < kp || (key = kp && seq < t.seqs.(parent)) then begin
      move t ~src:parent ~dst:i;
      sift_up t parent ~key ~seq
    end
    else i
  end

let insert t ~key ~seq value =
  if t.size = Array.length t.keys then grow t;
  let i = sift_up t t.size ~key ~seq in
  t.keys.(i) <- key;
  t.seqs.(i) <- seq;
  t.values.(i) <- Some value;
  t.size <- t.size + 1

let min_key t = if t.size = 0 then None else Some t.keys.(0)

(* The same downwards, for the entry in slot [last] (just past the live
   entries): move the smaller child of the hole at [i] up while it
   precedes that entry, then fill the hole with it. *)
let rec sift_down t i ~last =
  let l = (2 * i) + 1 in
  let c = if l + 1 < last && precedes t (l + 1) l then l + 1 else l in
  if c < last && precedes t c last then begin
    move t ~src:c ~dst:i;
    sift_down t c ~last
  end
  else move t ~src:last ~dst:i

let pop t =
  if t.size = 0 then None
  else begin
    let key = t.keys.(0) in
    let value = t.values.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then sift_down t 0 ~last:t.size;
    (* The vacated last slot must not keep a popped event reachable. *)
    t.values.(t.size) <- None;
    match value with Some v -> Some (key, v) | None -> assert false
  end
