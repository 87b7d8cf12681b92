open Import

(** LCSSA-form construction: every value defined inside a loop and used
    outside it is routed through a φ-node in the exit block.  These
    single-source φ-nodes always evaluate to the same value — exactly the
    "artificially inserted" φ-nodes the paper's reconstruct identifies and
    rebuilds for free (Section 5.4).  OSR-aware: inserted φ-nodes are
    recorded as [add] actions, and the outside-use rewrites as [replace].

    Each loop costs one scan of the function: the scan builds a table from
    every register the loop defines to its users outside the loop, and the
    φ insertion and use rewriting work from that table. *)

(* A use outside the loop: an instruction (φ or body) or a terminator. *)
type user = Instr of Ir.block * Ir.instr | Term of Ir.block

(* Outside users of each register in [defined], in the order φ insertion
   visits them: instruction users in block order, then terminator users in
   block order, each instruction or terminator once however many operands
   name the register.  Rewriting one register's uses never adds or removes
   a use of another, so a table built when the loop's turn starts stays
   exact while its registers are processed one after the other. *)
let outside_users (f : Ir.func) (l : Loops.loop) (defined : Ir.reg list) : Ir.reg -> user list
    =
  let tbl = Hashtbl.create (List.length defined) in
  List.iter (fun r -> Hashtbl.replace tbl r (ref [], ref [])) defined;
  let add side u r =
    match Hashtbl.find_opt tbl r with Some p -> side p := u :: !(side p) | None -> ()
  in
  List.iter
    (fun (b : Ir.block) ->
      if not (Loops.in_loop l b.label) then begin
        List.iter
          (fun (i : Ir.instr) ->
            List.iter (add fst (Instr (b, i))) (List.sort_uniq String.compare (Ir.rhs_uses i.rhs)))
          (Ir.block_instrs b);
        List.iter (add snd (Term b)) (List.sort_uniq String.compare (Ir.term_uses b.term))
      end)
    f.blocks;
  fun r ->
    let instrs, terms = Hashtbl.find tbl r in
    List.rev_append !instrs (List.rev !terms)

let run ~(mapper : Code_mapper.t) ~(am : Analysis_manager.t) (f : Ir.func) : bool =
  let changed = ref false in
  let loop_info = Analysis_manager.loops am in
  (* φ insertion never adds or removes blocks or edges, so [loop_info.dom]
     and the index's blocks and predecessors stay valid for the whole
     pass.  The def table is a snapshot of the input: registers of
     φ-nodes this pass inserts are not in it and never get a φ of their
     own. *)
  let index = Analysis_manager.index am in
  let dom = loop_info.dom in
  let def_tbl = Ir.def_table f in
  List.iter
    (fun (l : Loops.loop) ->
      let exits = Loops.exit_targets f l in
      (* Values defined in the loop, φ-nodes inserted for earlier loops
         included. *)
      let defined_in_loop =
        List.sort_uniq String.compare
          (List.concat_map
             (fun label ->
               match Func_index.find_block index label with
               | Some b ->
                   List.filter_map (fun (i : Ir.instr) -> i.result) (Ir.block_instrs b)
               | None -> [])
             l.body)
      in
      let users_of = outside_users f l defined_in_loop in
      List.iter
        (fun (r : Ir.reg) ->
          let users = users_of r in
          if users <> [] then
            (* A φ goes only into an exit whose predecessors are all in the
               loop (one φ then covers every edge into the exit) and whose
               loop predecessors are all dominated by the definition (so [r]
               is available on every incoming edge).  Only uses dominated by
               that exit are rewritten to read the φ. *)
            List.iter
              (fun exit_label ->
                match Func_index.find_block index exit_label with
                | None -> ()
                | Some eb -> (
                    let preds = Func_index.predecessors index exit_label in
                    match Hashtbl.find_opt def_tbl r with
                    | Some (d : Ir.def_site)
                      when preds <> []
                           && List.for_all (Loops.in_loop l) preds
                           && List.for_all
                                (fun p -> Dom.dominates_block dom ~a:d.block ~b:p)
                                preds ->
                        let phi =
                          {
                            Ir.id = Ir.fresh_id f;
                            result = Some (Ir.fresh_reg ~hint:(r ^ ".lcssa") f);
                            rhs = Ir.Phi (List.map (fun p -> (p, Ir.Reg r)) preds);
                          }
                        in
                        let phi_reg = Ir.Reg (Option.get phi.result) in
                        eb.phis <- eb.phis @ [ phi ];
                        (* The φ alone already mutates the function, even if
                           no outside use ends up rewritten below. *)
                        changed := true;
                        Code_mapper.add_instr mapper phi ~block:exit_label;
                        let subst v = if Ir.equal_value v (Ir.Reg r) then phi_reg else v in
                        List.iter
                          (fun u ->
                            let (ub : Ir.block) = match u with Instr (b, _) | Term b -> b in
                            if Dom.dominates_block dom ~a:exit_label ~b:ub.label then begin
                              let inst =
                                match u with
                                | Instr (_, ui) ->
                                    ui.rhs <- Ir.map_rhs_operands subst ui.rhs;
                                    ui
                                | Term _ ->
                                    ub.term <- Ir.map_term_operands subst ub.term;
                                    (* The mapper records only the user's id. *)
                                    { Ir.id = ub.term_id; result = None; rhs = Ir.Alloca 0 }
                              in
                              Code_mapper.replace_use_in mapper ~inst ~old_value:(Ir.Reg r)
                                ~new_value:phi_reg;
                              changed := true
                            end)
                          users
                    | _ -> ()))
              exits)
        defined_in_loop)
    loop_info.loops;
  !changed
