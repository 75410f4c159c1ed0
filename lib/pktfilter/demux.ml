type mode = Interpreted | Compiled

type 'a entry = {
  id : int;
  installed : Verify.analyzed;
      (* the program as installed, analyzed once at install time; the
         overlap checks in [conflicts] read it *)
  optimized : Program.t;  (* what actually runs *)
  predicate : Uln_buf.View.t -> bool * int;
  wcet : int;
  report : Verify.report;
  exact : ((int * int) list * int) option;
      (* [(byte constraints, min length)] when the optimized program is
         conjunctive-exact: it accepts exactly the packets of length
         >= min that carry those byte values.  Derived from the
         verifier's analysis; the hierarchical index's partition
         criterion and bucket key. *)
  endpoint : 'a;
  mutable affinity : int;
      (* Receive flow steering: the CPU index this endpoint's traffic
         should be processed on.  Mutable and read at dispatch, so a
         re-install (affinity change mid-connection) is a field update
         every later dispatch sees. *)
  mutable dead : bool;
      (* Removal tombstone: the priority-ordered [entries] list is
         compacted lazily (amortized O(1) remove); a dead entry is
         skipped at zero cost everywhere it could still be seen. *)
}

type key = int

type 'a conflict = { against : key; with_endpoint : 'a; witness : Uln_buf.View.t }

(* The hierarchical index groups every conjunctive-exact entry by its
   constrained-offset set ("shape") and hashes the constraint bytes to a
   bucket of entries; entries whose programs have no exactness proof go
   to the [residual] list and keep the linear-scan treatment.  A bucket
   holds a *list* (several filters may pin the same bytes, e.g. a
   listener and the connections under it): dispatch considers every
   candidate and picks the highest id, exactly what the priority scan
   would return. *)
type 'a shape = {
  s_offs : int array;  (* sorted byte offsets *)
  s_max : int;  (* highest offset (length guard) *)
  s_tbl : (string, 'a entry list ref) Hashtbl.t;
}

type 'a t = {
  mode : mode;
  budget : int option;
  mutable entries : 'a entry list;
  by_id : (int, 'a entry) Hashtbl.t;
  mutable n_entries : int;  (* live (non-dead) entries *)
  mutable n_dead : int;  (* tombstones awaiting compaction *)
  mutable next_id : int;
  mutable hier : bool;
  mutable shapes : 'a shape list;
  mutable residual : 'a entry list;  (* inexact entries, priority order *)
}

let create ~mode ?budget ?(hier = false) () =
  { mode;
    budget;
    entries = [];
    by_id = Hashtbl.create 64;
    n_entries = 0;
    n_dead = 0;
    next_id = 0;
    hier;
    shapes = [];
    residual = [] }

let mode t = t.mode
let budget t = t.budget

(* The hierarchical index is maintained whether or not it is consulted,
   so the switch only selects the dispatch path: the differential tests
   can flip it between lookups on the same table. *)
let set_hier t on = t.hier <- on

let conflicts t program =
  let candidate = Verify.analyzed program in
  (* Single-slot memo on the physical program: stamped populations share
     their template's program and analysis and sit consecutively in the
     list, so a 10^6-entry table runs the witness search (constraint
     merges plus interpreter checks) once for the whole run instead of
     once per entry.  No entry is re-analyzed: each carries the
     analysis made when it was installed. *)
  let last : (Program.t option * Uln_buf.View.t option) ref = ref (None, None) in
  let overlap (installed : Verify.analyzed) =
    match !last with
    | Some q, r when q == installed.Verify.program -> r
    | _ ->
        let r =
          match Verify.overlap_witness_analyzed candidate installed with
          | Some witness
            when not
                   (Verify.subsumes_analyzed ~general:candidate ~specific:installed
                   || Verify.subsumes_analyzed ~general:installed ~specific:candidate) ->
              Some witness
          | _ -> None
        in
        last := (Some installed.Verify.program, r);
        r
  in
  List.filter_map
    (fun e ->
      if e.dead then None
      else
        match overlap e.installed with
        | Some witness -> Some { against = e.id; with_endpoint = e.endpoint; witness }
        | None -> None)
    t.entries

(* --- the hierarchical index -------------------------------------------- *)

let sort_constraints ecs = List.sort (fun (a, _) (b, _) -> compare a b) ecs

let key_of_constraints ecs =
  let a = Array.of_list ecs in
  String.init (Array.length a) (fun i -> Char.chr (snd a.(i)))

let hindex_add t (e : 'a entry) =
  match e.exact with
  | Some (ecs, _) when ecs <> [] ->
      let offs = Array.of_list (List.map fst ecs) in
      let sh =
        match List.find_opt (fun sh -> sh.s_offs = offs) t.shapes with
        | Some sh -> sh
        | None ->
            let sh =
              { s_offs = offs;
                s_max = Array.fold_left max 0 offs;
                s_tbl = Hashtbl.create 256 }
            in
            t.shapes <- t.shapes @ [ sh ];
            sh
      in
      let key = key_of_constraints ecs in
      (match Hashtbl.find_opt sh.s_tbl key with
      | Some bucket -> bucket := e :: !bucket
      | None -> Hashtbl.replace sh.s_tbl key (ref [ e ]))
  | _ -> t.residual <- e :: t.residual

let hindex_remove t (e : 'a entry) =
  match e.exact with
  | Some (ecs, _) when ecs <> [] -> (
      let offs = Array.of_list (List.map fst ecs) in
      match List.find_opt (fun sh -> sh.s_offs = offs) t.shapes with
      | None -> ()
      | Some sh -> (
          let key = key_of_constraints ecs in
          match Hashtbl.find_opt sh.s_tbl key with
          | None -> ()
          | Some bucket -> (
              match List.filter (fun g -> g.id <> e.id) !bucket with
              | [] -> Hashtbl.remove sh.s_tbl key
              | rest -> bucket := rest)))
  | _ -> t.residual <- List.filter (fun g -> g.id <> e.id) t.residual

(* --- install / remove --------------------------------------------------- *)

let add_entry t entry =
  t.entries <- entry :: t.entries;
  Hashtbl.replace t.by_id entry.id entry;
  t.n_entries <- t.n_entries + 1;
  hindex_add t entry

let install ?(optimize = true) ?(affinity = 0) t program endpoint =
  let optimized = if optimize then Optimize.run program else program in
  let verified = Verify.analyzed optimized in
  match Verify.admit_analyzed ?budget:t.budget ~compiled:(t.mode = Compiled) verified with
  | Error e -> Error e
  | Ok report ->
      let predicate =
        match t.mode with
        | Interpreted -> fun pkt -> Interp.run_counted optimized pkt
        | Compiled -> Compile.compile_counted optimized
      in
      let wcet =
        match t.mode with
        | Interpreted -> report.Verify.wcet_interp
        | Compiled -> report.Verify.wcet_compiled
      in
      let exact =
        let a = verified.Verify.absint in
        if a.Absint.r_conjunctive then
          match a.Absint.r_accept_paths with
          | [ ap ] when ap.Absint.ap_exact && ap.Absint.ap_at = None ->
              Some (sort_constraints ap.Absint.ap_constraints, ap.Absint.ap_min_len)
          | _ -> None
        else None
      in
      let installed = if optimized == program then verified else Verify.analyzed program in
      t.next_id <- t.next_id + 1;
      let entry =
        { id = t.next_id; installed; optimized; predicate; wcet; report; exact; endpoint;
          affinity; dead = false }
      in
      add_entry t entry;
      Ok entry.id

let install_exn ?optimize ?affinity t program endpoint =
  match install ?optimize ?affinity t program endpoint with
  | Ok k -> k
  | Error e -> raise (Verify.Rejected e)

(* Synthesize the cheapest packet satisfying a constraint set, for
   deriving stamped-entry cycle costs from a template's real program. *)
let packet_of_constraints ecs min_len =
  let len = List.fold_left (fun m (o, _) -> max m (o + 1)) min_len ecs in
  let v = Uln_buf.View.create len in
  List.iter (fun (o, b) -> Uln_buf.View.set_uint8 v o b) ecs;
  v

(* Prestamped install: the registry (or a scale bench) derives a
   connection filter from an already-admitted template by overriding its
   byte constraints — the same program shape with the connection's
   addresses stamped in.  No verifier pass runs: the template's
   admission certificate covers the stamped program (identical
   instruction structure, identical worst case), which is what makes a
   10^6-entry population feasible.  The entry's dispatch behaviour is
   the constraint predicate itself; its charged cycle costs are measured
   once from the template's real program — the accept cost on the
   template's own accept packet, the reject cost on a stamped near-miss
   (a packet differing only in the stamped bytes). *)
let install_stamped ?(affinity = 0) t ~template ~constraints ~min_len endpoint =
  match Hashtbl.find_opt t.by_id template with
  | None -> Error "install_stamped: unknown template"
  | Some te when te.dead -> Error "install_stamped: template was removed"
  | Some te -> (
      match te.exact with
      | None -> Error "install_stamped: template is not conjunctive-exact"
      | Some (tcs, tml) ->
          if constraints = [] then Error "install_stamped: empty constraint set"
          else begin
            let ecs = sort_constraints constraints in
            let _, accept_cycles = te.predicate (packet_of_constraints tcs tml) in
            let _, reject_cycles = te.predicate (packet_of_constraints ecs min_len) in
            let predicate pkt =
              let plen = Uln_buf.View.length pkt in
              let ok =
                plen >= min_len
                && List.for_all
                     (fun (o, b) -> Uln_buf.View.get_uint8 pkt o = b)
                     ecs
              in
              (ok, if ok then accept_cycles else reject_cycles)
            in
            t.next_id <- t.next_id + 1;
            let entry =
              { id = t.next_id;
                installed = te.installed;
                optimized = te.optimized;
                predicate;
                wcet = te.wcet;
                report = te.report;
                exact = Some (ecs, min_len);
                endpoint;
                affinity;
                dead = false }
            in
            add_entry t entry;
            Ok entry.id
          end)

(* Tombstone the entry and compact the priority list once more than half
   of it is dead — O(1) amortized, and [find]/[entries] never pay for
   removals in between. *)
let compact t =
  t.entries <- List.filter (fun e -> not e.dead) t.entries;
  t.n_dead <- 0

let remove t key =
  match Hashtbl.find_opt t.by_id key with
  | None -> ()
  | Some e ->
      e.dead <- true;
      Hashtbl.remove t.by_id key;
      t.n_entries <- t.n_entries - 1;
      t.n_dead <- t.n_dead + 1;
      hindex_remove t e;
      if t.n_dead > t.n_entries && t.n_dead > 32 then compact t

let entries t = t.n_entries

let find t key = Hashtbl.find_opt t.by_id key

let affinity t key = Option.map (fun e -> e.affinity) (find t key)

(* Dispatch reads [affinity] from the entry itself, so no dispatch
   after [set_affinity] returns can steer to the old CPU. *)
let set_affinity t key cpu =
  match find t key with None -> () | Some e -> e.affinity <- cpu

let wcet t key = Option.map (fun e -> e.wcet) (find t key)
let report t key = Option.map (fun e -> e.report) (find t key)
let installed_program t key = Option.map (fun e -> e.optimized) (find t key)

(* --- dispatch ----------------------------------------------------------- *)

let scan t pkt =
  let rec go cost = function
    | [] -> (None, cost)
    | e :: rest ->
        if e.dead then go cost rest
        else begin
          let accepted, cycles = e.predicate pkt in
          let cost = cost + cycles in
          if accepted then (Some e, cost) else go cost rest
        end
  in
  go 0 t.entries

(* Calibrated probe cost: hashing an n-byte key and comparing it against
   the bucket, modelled at 2 cycles per key byte plus a fixed lookup
   overhead — small, and independent of the table size (that
   independence is the point; a test asserts it). *)
let probe_base_cycles = 16
let probe_per_byte_cycles = 2

let probe_cycles sh = probe_base_cycles + (probe_per_byte_cycles * Array.length sh.s_offs)

let key_of_packet offs pkt =
  String.init (Array.length offs) (fun i ->
      Char.chr (Uln_buf.View.get_uint8 pkt offs.(i)))

(* Hierarchical lookup.  Soundness relative to [scan]: the linear scan
   returns the *highest-id* acceptor (entries are prepended, so priority
   order is descending id).  Exact-indexed entries accept a packet iff
   its bytes match their constraint key and it meets the minimum length
   — that is the verifier's exactness proof, so every bucket candidate
   surviving the length guard is a true acceptor and every exact entry
   outside the matching buckets is a true rejector.  Residual (inexact)
   entries run their real predicates in priority order; the first
   residual acceptor is the highest-id residual acceptor, and the
   residual scan is skipped entirely when the best exact candidate
   already outranks every residual entry (the residual head bounds their
   ids).  The maximum id over both groups is therefore exactly the scan
   winner.  Cost: one calibrated probe per shape plus any residual
   predicates actually run — independent of the number of exact entries,
   which is the point at 10^5-10^6 connections. *)
let hier_lookup t pkt =
  let plen = Uln_buf.View.length pkt in
  let best = ref None in
  let cost = ref 0 in
  let consider e =
    match !best with
    | Some b when b.id >= e.id -> ()
    | _ -> best := Some e
  in
  List.iter
    (fun sh ->
      cost := !cost + probe_cycles sh;
      if plen > sh.s_max then
        match Hashtbl.find_opt sh.s_tbl (key_of_packet sh.s_offs pkt) with
        | Some bucket ->
            List.iter
              (fun e ->
                let ml = match e.exact with Some (_, ml) -> ml | None -> 0 in
                if (not e.dead) && plen >= ml then consider e)
              !bucket
        | None -> ())
    t.shapes;
  let need_residual =
    match (!best, t.residual) with
    | _, [] -> false
    | None, _ -> true
    | Some b, r :: _ -> r.id > b.id
  in
  if need_residual then begin
    let rec go = function
      | [] -> ()
      | e :: rest ->
          if e.dead then go rest
          else begin
            let accepted, cycles = e.predicate pkt in
            cost := !cost + cycles;
            if accepted then consider e else go rest
          end
    in
    go t.residual
  end;
  (!best, !cost)

let dispatch_entry t pkt = if t.hier then hier_lookup t pkt else scan t pkt

let dispatch t pkt =
  let e, cost = dispatch_entry t pkt in
  (Option.map (fun e -> e.endpoint) e, cost)

let dispatch_steered t pkt =
  let e, cost = dispatch_entry t pkt in
  (Option.map (fun e -> (e.endpoint, e.affinity)) e, cost)
