(** Natural-loop detection for MiniIR, via back edges in the dominator
    tree.  Used by LoopCanon (preheader insertion), LICM (what to hoist and
    where) and LCSSA (which values escape a loop). *)

type loop = {
  header : string;
  body : string list;  (** all blocks of the loop, header included *)
  latches : string list;  (** sources of back edges into the header *)
  body_set : (string, unit) Hashtbl.t;  (** [body] hashed, for {!in_loop} *)
}

type t = { loops : loop list; dom : Dom.t }

(** Detect all natural loops of [index]'s function, given its dominators.
    Back edge: [b → h] with [h] dominating [b].  Loops sharing a header are
    merged. *)
let compute (index : Func_index.t) (dom : Dom.t) : t =
  let f = index.cfg.func in
  let back_edges =
    List.concat_map
      (fun (b : Ir.block) ->
        List.filter_map
          (fun s ->
            if Dom.reachable dom b.label && Dom.dominates_block dom ~a:s ~b:b.label then
              Some (b.label, s)
            else None)
          (Ir.successors b))
      f.blocks
  in
  let by_header = Hashtbl.create 8 in
  List.iter
    (fun (latch, header) ->
      let existing = Option.value ~default:[] (Hashtbl.find_opt by_header header) in
      Hashtbl.replace by_header header (latch :: existing))
    back_edges;
  let loops =
    Hashtbl.fold
      (fun header latches acc ->
        (* Loop body: header plus every block that reaches a latch without
           passing through the header (standard natural-loop construction:
           backward flood from the latches, stopping at the header). *)
        let body = Hashtbl.create 8 in
        Hashtbl.add body header ();
        let rec flood label =
          if not (Hashtbl.mem body label) then begin
            Hashtbl.add body label ();
            List.iter flood (Func_index.predecessors index label)
          end
        in
        List.iter flood latches;
        {
          header;
          body = List.filter (Hashtbl.mem body) (List.map (fun (b : Ir.block) -> b.label) f.blocks);
          latches;
          body_set = body;
        }
        :: acc)
      by_header []
  in
  (* Sort outermost-first (larger bodies first) for LICM processing. *)
  let loops =
    List.sort (fun a b -> compare (List.length b.body) (List.length a.body)) loops
  in
  { loops; dom }

let in_loop (l : loop) (label : string) = Hashtbl.mem l.body_set label

(** Blocks outside the loop that the loop branches to. *)
let exit_targets (f : Ir.func) (l : loop) : string list =
  List.sort_uniq compare
    (List.concat_map
       (fun (b : Ir.block) ->
         if in_loop l b.label then List.filter (fun s -> not (in_loop l s)) (Ir.successors b)
         else [])
       f.blocks)

(** Predecessors of the header from outside the loop (candidates to be
    replaced by a preheader). *)
let outside_preds (f : Ir.func) (l : loop) : string list =
  List.filter (fun p -> not (in_loop l p)) (Ir.predecessors f l.header)

(** The unique preheader, if the loop is in canonical form: exactly one
    outside predecessor whose only successor is the header. *)
let preheader (f : Ir.func) (l : loop) : string option =
  match outside_preds f l with
  | [ p ] -> (
      match Ir.find_block f p with
      | Some pb -> if Ir.successors pb = [ l.header ] then Some p else None
      | None -> None)
  | _ -> None
