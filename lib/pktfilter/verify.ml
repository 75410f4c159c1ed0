module View = Uln_buf.View

type vacuity = Always_false | Always_true | Satisfiable

type report = {
  vacuity : vacuity;
  min_accept_len : int option;
  wcet_interp : int;
  wcet_compiled : int;
  max_depth : int;
  conjunctive : bool;
}

type error =
  | Vacuous_always_false
  | Over_budget of { wcet : int; budget : int }

exception Rejected of error

let pp_vacuity ppf = function
  | Always_false -> Format.pp_print_string ppf "always-false"
  | Always_true -> Format.pp_print_string ppf "always-true"
  | Satisfiable -> Format.pp_print_string ppf "satisfiable"

let pp_error ppf = function
  | Vacuous_always_false ->
      Format.pp_print_string ppf "vacuous filter: provably rejects every packet"
  | Over_budget { wcet; budget } ->
      Format.fprintf ppf "over budget: worst-case %d cycles exceeds the %d-cycle budget" wcet
        budget

let pp_report ppf r =
  Format.fprintf ppf "@[<v>verdict:        %a@ min accept len: %s@ " pp_vacuity r.vacuity
    (match r.min_accept_len with None -> "-" | Some n -> string_of_int n);
  Format.fprintf ppf "wcet:           %d cycles interpreted, %d compiled@ " r.wcet_interp
    r.wcet_compiled;
  Format.fprintf ppf "max stack:      %d@ conjunctive:    %b@]" r.max_depth r.conjunctive

let report_of_absint (a : Absint.result) =
  { vacuity =
      (if a.Absint.r_always_false then Always_false
       else if a.Absint.r_always_true then Always_true
       else Satisfiable);
    min_accept_len = a.Absint.r_min_accept_len;
    wcet_interp = a.Absint.r_wcet_interp;
    wcet_compiled = a.Absint.r_wcet_compiled;
    max_depth = a.Absint.r_max_depth;
    conjunctive = a.Absint.r_conjunctive }

type analyzed = { program : Program.t; absint : Absint.result }

let analyzed program = { program; absint = Absint.analyze program }

let analyze program = report_of_absint (Absint.analyze program)

let admit_analyzed ?budget ?(compiled = false) a =
  let r = report_of_absint a.absint in
  if r.vacuity = Always_false then Error Vacuous_always_false
  else
    let wcet = if compiled then r.wcet_compiled else r.wcet_interp in
    match budget with
    | Some b when wcet > b -> Error (Over_budget { wcet; budget = b })
    | _ -> Ok r

let admit ?budget ?compiled program = admit_analyzed ?budget ?compiled (analyzed program)

(* --- overlap and subsumption ------------------------------------------- *)

(* Linear merge of two constraint lists sorted by offset; [None] when
   some offset is pinned to two values, within one list or across the
   two.  Equal offsets from both lists come out adjacent, so a first
   pass compares each pair with its predecessor without allocating and
   stops at the first disagreement; only a consistent pair pays for the
   second pass, which builds the merged list with duplicates dropped. *)
let rec consistent (last_o : int) (last_v : int) c1 c2 =
  match (c1, c2) with
  | [], [] -> true
  | (o, v) :: r1, [] | [], (o, v) :: r1 ->
      (o <> last_o || v = last_v) && consistent o v r1 []
  | (o1, v1) :: r1, (o2, _) :: _ when o1 <= o2 ->
      (o1 <> last_o || v1 = last_v) && consistent o1 v1 r1 c2
  | _, (o2, v2) :: r2 -> (o2 <> last_o || v2 = last_v) && consistent o2 v2 c1 r2

let rec merge_consistent (last_o : int) c1 c2 =
  let emit o v rest = if o = last_o then rest else (o, v) :: rest in
  match (c1, c2) with
  | [], [] -> []
  | (o, v) :: r1, [] | [], (o, v) :: r1 -> emit o v (merge_consistent o r1 [])
  | (o1, v1) :: r1, (o2, _) :: _ when o1 <= o2 -> emit o1 v1 (merge_consistent o1 r1 c2)
  | _, (o2, v2) :: r2 -> emit o2 v2 (merge_consistent o2 c1 r2)

let merge_constraints c1 c2 =
  if consistent (-1) 0 c1 c2 then Some (merge_consistent (-1) c1 c2) else None

let witness_of ~len constraints =
  let v = View.create len in
  List.iter (fun (o, b) -> if o < len then View.set_uint8 v o b) constraints;
  v

let overlap_witness_analyzed a1 a2 =
  let try_pair (p1 : Absint.accept_path) (p2 : Absint.accept_path) =
    match merge_constraints p1.Absint.ap_constraints p2.Absint.ap_constraints with
    | None -> None
    | Some merged ->
        let len = Stdlib.max p1.Absint.ap_min_len p2.Absint.ap_min_len in
        let w = witness_of ~len merged in
        (* The constraint sets may be incomplete ([ap_exact] false), so a
           candidate is only a witness once both programs concretely
           accept it: the flag always comes with a checked packet. *)
        if Interp.run a1.program w && Interp.run a2.program w then Some w else None
  in
  List.find_map
    (fun p1 -> List.find_map (fun p2 -> try_pair p1 p2) a2.absint.Absint.r_accept_paths)
    a1.absint.Absint.r_accept_paths

let overlap_witness p1 p2 = overlap_witness_analyzed (analyzed p1) (analyzed p2)

let subsumes_analyzed ~general ~specific =
  let rg = general.absint and rs = specific.absint in
  match (rg.Absint.r_accept_paths, rs.Absint.r_accept_paths) with
  | [ ag ], [ as_ ] when rg.Absint.r_conjunctive && rs.Absint.r_conjunctive ->
      ag.Absint.ap_min_len <= as_.Absint.ap_min_len
      && List.for_all
           (fun (o, v) -> List.mem (o, v) as_.Absint.ap_constraints)
           ag.Absint.ap_constraints
  | _ -> false

let subsumes ~general ~specific =
  subsumes_analyzed ~general:(analyzed general) ~specific:(analyzed specific)

(* --- template consistency ---------------------------------------------- *)

type template_error =
  | Template_inconsistent of { offset : int }
  | Impersonation_hole of { offset : int }

let pp_template_error ppf = function
  | Template_inconsistent { offset } ->
      Format.fprintf ppf
        "template self-contradiction: overlapping constraints at byte %d disagree" offset
  | Impersonation_hole { offset } ->
      Format.fprintf ppf
        "anti-impersonation hole: the receive filter pins the local address but the send \
         template leaves source byte %d unconstrained or different"
        offset

(* Per-byte (mask, value) view of a template's 16-bit word fields. *)
let template_bytes tpl =
  let tbl : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
  let conflict = ref None in
  let add off mask value =
    if mask <> 0 then
      match Hashtbl.find_opt tbl off with
      | None -> Hashtbl.replace tbl off (mask, value land mask)
      | Some (m, v) ->
          let common = m land mask in
          if v land common <> value land mask land common then (
            if !conflict = None then conflict := Some off)
          else Hashtbl.replace tbl off (m lor mask, v lor (value land mask))
  in
  List.iter
    (fun (f : Template.field) ->
      add f.Template.offset ((f.Template.mask lsr 8) land 0xff) ((f.Template.value lsr 8) land 0xff);
      add (f.Template.offset + 1) (f.Template.mask land 0xff) (f.Template.value land 0xff))
    (Template.fields tpl);
  match !conflict with Some off -> Error off | None -> Ok tbl

(* Our Ethernet encapsulation: the receive filter pins the endpoint's
   local IP at bytes 30..33 (IP destination); an honest send template
   must pin the IP source (bytes 26..29) to the same address, or the
   owner could impersonate other local endpoints on output. *)
let off_filter_dst_ip = 30
let off_template_src_ip = 26

let check_template ~filter tpl =
  match template_bytes tpl with
  | Error offset -> Error (Template_inconsistent { offset })
  | Ok bytes -> (
      let r = Absint.analyze filter in
      match r.Absint.r_accept_paths with
      | [ ap ] when r.Absint.r_conjunctive ->
          let local_ip_byte i = List.assoc_opt (off_filter_dst_ip + i) ap.Absint.ap_constraints in
          let rec check i =
            if i = 4 then Ok ()
            else
              match local_ip_byte i with
              | None -> Ok () (* filter does not pin the full local address *)
              | Some v -> (
                  match Hashtbl.find_opt bytes (off_template_src_ip + i) with
                  | Some (0xff, v') when v' = v -> check (i + 1)
                  | _ -> Error (Impersonation_hole { offset = off_template_src_ip + i }))
          in
          if List.for_all (fun i -> local_ip_byte i <> None) [ 0; 1; 2; 3 ] then check 0
          else Ok ()
      | _ -> Ok ())
