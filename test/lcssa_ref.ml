(** The LCSSA pass as it was before the per-loop outside-user table: for
    every loop and every register the loop defines, a rescan of the whole
    function.  Test-only reference for the differential test in
    [Suite_passes]; the body below is kept verbatim. *)

module Ir = Miniir.Ir
module Dom = Miniir.Dom
module Loops = Miniir.Loops
module Func_index = Miniir.Func_index
module Code_mapper = Passes.Code_mapper

let run ~(mapper : Code_mapper.t) (f : Ir.func) : bool =
  let mapper = Some mapper in
  let changed = ref false in
  let loop_info = let index = Func_index.make f in Loops.compute index (Dom.compute index.cfg) in
  (* φ insertion never adds or removes blocks or edges, so [loop_info.dom]
     stays valid for every dominance query below.  The def table only gains
     entries (each inserted φ defines a fresh register) and existing sites
     never move, so one table serves the whole pass. *)
  let def_tbl = Ir.def_table f in
  List.iter
    (fun (l : Loops.loop) ->
      let exits = Loops.exit_targets f l in
      (* Values defined in the loop. *)
      let defined_in_loop =
        List.concat_map
          (fun label ->
            match Ir.find_block f label with
            | Some b ->
                List.filter_map (fun (i : Ir.instr) -> i.result) (Ir.block_instrs b)
            | None -> [])
          l.body
      in
      List.iter
        (fun (r : Ir.reg) ->
          (* Uses outside the loop? *)
          let outside_users =
            List.concat_map
              (fun (b : Ir.block) ->
                if Loops.in_loop l b.label then
                  (* φ-nodes in the header reading r from a latch are inside
                     uses; skip the whole block. *)
                  []
                else
                  List.filter
                    (fun (i : Ir.instr) -> List.mem r (Ir.rhs_uses i.rhs))
                    (Ir.block_instrs b)
                  |> List.map (fun i -> (b, i)))
              f.blocks
            @ List.filter_map
                (fun (b : Ir.block) ->
                  if (not (Loops.in_loop l b.label)) && List.mem r (Ir.term_uses b.term) then
                    Some (b, { Ir.id = b.term_id; result = None; rhs = Ir.Alloca 0 })
                  else None)
                f.blocks
          in
          if outside_users <> [] then begin
            (* Insert one φ per exit block that the value flows through.
               For simplicity we insert in every exit whose predecessors
               include a loop block dominating... conservatively: exits
               reachable from the definition; each gets a φ with one
               incoming per loop-predecessor edge. *)
            List.iter
              (fun exit_label ->
                match Ir.find_block f exit_label with
                | None -> ()
                | Some eb ->
                    let loop_preds =
                      List.filter (Loops.in_loop l) (Ir.predecessors f exit_label)
                    in
                    if loop_preds <> [] then begin
                      (* Only legal if r is available at those edges; we rely
                         on the definition dominating the exit (checked via
                         the verifier after the pass; if it does not, skip). *)
                      match Hashtbl.find_opt def_tbl r with
                      | Some (d : Ir.def_site)
                        when List.for_all
                               (fun p ->
                                 Dom.dominates_block loop_info.dom ~a:d.block ~b:p)
                               loop_preds ->
                          (* All exit preds must come from the loop for the φ
                             to be well-formed with a single φ; otherwise skip. *)
                          if
                            List.for_all (Loops.in_loop l) (Ir.predecessors f exit_label)
                          then begin
                            let phi =
                              {
                                Ir.id = Ir.fresh_id f;
                                result = Some (Ir.fresh_reg ~hint:(r ^ ".lcssa") f);
                                rhs =
                                  Ir.Phi
                                    (List.map
                                       (fun p -> (p, Ir.Reg r))
                                       (Ir.predecessors f exit_label));
                              }
                            in
                            let phi_reg = Option.get phi.result in
                            eb.phis <- eb.phis @ [ phi ];
                            (* The φ alone already mutates the function, even
                               if no outside use ends up rewritten below —
                               report the change or cached analyses go stale. *)
                            changed := true;
                            Option.iter
                              (fun m -> Code_mapper.add_instr m phi ~block:exit_label)
                              mapper;
                            (* Rewrite outside uses dominated by this exit. *)
                            List.iter
                              (fun ((ub : Ir.block), (ui : Ir.instr)) ->
                                if
                                  Dom.dominates_block loop_info.dom ~a:exit_label
                                    ~b:ub.label
                                  && ui.id <> phi.id
                                then begin
                                  let subst v =
                                    if Ir.equal_value v (Ir.Reg r) then Ir.Reg phi_reg else v
                                  in
                                  if ui.result = None && ui.rhs = Ir.Alloca 0 then
                                    (* marker for a terminator use *)
                                    ub.term <- Ir.map_term_operands subst ub.term
                                  else ui.rhs <- Ir.map_rhs_operands subst ui.rhs;
                                  Option.iter
                                    (fun m ->
                                      Code_mapper.replace_use_in m ~inst:ui
                                        ~old_value:(Ir.Reg r) ~new_value:(Ir.Reg phi_reg))
                                    mapper;
                                  changed := true
                                end)
                              outside_users
                          end
                      | _ -> ()
                    end)
              exits
          end)
        (List.sort_uniq String.compare defined_in_loop))
    loop_info.loops;
  !changed
