open Import

(** The OSR runtime: arms OSR points on a running TinyVM machine and fires
    transitions through generated continuation functions, OSRKit-style
    (Section 5.4).  A transition:

    {ol
    {- stops the source machine when it is about to execute an armed point
       and the guard holds;}
    {- evaluates the continuation's parameter sources against the live
       source frame;}
    {- runs the compensation code χ ([f'to]'s entry block) off to the side
       on a fresh continuation machine sharing the same memory;}
    {- validates the reconstructed frame against the registers live into
       the landing point;}
    {- only then {e commits}: the continuation runs to completion and its
       result is the result of the original activation.}}

    Transitions are {e guarded and transactional} (after Flückiger et
    al.'s treatment of deoptimization as an abortable event): any failure
    before the commit point — an unreadable source value, a trap inside χ,
    a frame that fails validation — rolls the shared memory back to its
    pre-transition snapshot, disarms the site, records a typed
    {!Osr_error.t}, and resumes the {e source} frame exactly where it was.
    An aborted transition is observably a no-op.

    The runtime is engine-polymorphic: {!Make} works over any
    {!Tinyvm.Engine.S} (the reference interpreter or the compiled
    slot-register engine).  The top level of this module is the
    reference-engine instantiation — the historical API — and {!Compiled}
    is the compiled-engine one; all three have the signature {!S}.  Armed
    points live in a direct-indexed [site option array] keyed by
    instruction id — O(1) per step, one guard evaluation per arrival. *)

module Engine = Tinyvm.Engine

type 'machine gsite = {
  at : int;  (** source instruction id where the transition may fire *)
  guard : 'machine -> bool;  (** user-provided firing condition *)
  cont : Contfun.t;
}

type transition_stats = {
  fired_at : int;
  comp_entry_instrs : int;  (** instructions executed in f'to's entry block *)
}

type abort = { abort_at : int; reason : Osr_error.t }
(** One aborted (rolled-back) transition attempt. *)

type osr_outcome = {
  transition : transition_stats option;  (** the committed transition, if any *)
  aborted : abort list;  (** aborted (rolled-back) attempts, in order *)
}

(** Runtime hooks: the seams the deterministic fault injector ({!Fault})
    plugs into.  Every hook defaults to "no interference"; each is
    consulted once per decision point.  They are deliberately
    engine-independent — plain functions over points and register names. *)
type hooks = {
  h_guard_trap : at:int -> Interp.trap option;
      (** make the guard at [at] trap instead of answering *)
  h_guard_override : at:int -> bool option;
      (** force ([Some true]) or suppress ([Some false]) the guard *)
  h_chi_trap : at:int -> Interp.trap option;
      (** inject a trap mid-χ (after roughly half the compensation code) *)
  h_poison : at:int -> live_in:Ir.reg list -> Ir.reg option;
      (** un-define one reconstructed register before validation *)
  h_fuel_cut : at:int -> int option;
      (** cap the continuation's fuel at the transition *)
}

let no_hooks : hooks =
  {
    h_guard_trap = (fun ~at:_ -> None);
    h_guard_override = (fun ~at:_ -> None);
    h_chi_trap = (fun ~at:_ -> None);
    h_poison = (fun ~at:_ ~live_in:_ -> None);
    h_fuel_cut = (fun ~at:_ -> None);
  }

(* OSR-event statistics: fired transitions, the compensation work each one
   executes on entry, and aborted (rolled-back) attempts (`--stats`). *)
let stat_fired = Telemetry.counter ~group:"osr" "fired" ~desc:"OSR transitions fired"

let stat_comp_instrs =
  Telemetry.counter ~group:"osr" "comp_instrs"
    ~desc:"compensation instructions executed across fired transitions"

let stat_aborted =
  Telemetry.counter ~group:"osr" "transition.aborted"
    ~desc:"OSR transitions aborted and rolled back"

(** The runtime over one engine's machines. *)
module type S = sig
  type machine

  val fire :
    ?hooks:hooks -> ?validate:bool -> machine -> machine gsite -> (machine, Osr_error.t) result
  (** Attempt the transition transactionally: build the continuation
      machine on the shared memory, run χ to the landing point, validate
      the reconstructed frame.  [Ok] is the continuation paused at the
      landing point, committed.  [Error] means the attempt was rolled
      back — memory restored, source machine untouched. *)

  val run_with_osr :
    ?fuel:int ->
    ?validate:bool ->
    ?hooks:hooks ->
    machine ->
    machine gsite list ->
    (Interp.outcome, Interp.trap) result * osr_outcome
  (** Run the machine, transferring control at the first armed point whose
      guard fires and whose transition commits; continue in the
      continuation to completion.  Aborted attempts disarm their site and
      leave the source run observably untouched.  Events observed before
      the transition belong to the activation. *)

  val run_transition :
    ?fuel:int ->
    ?arrival:int ->
    ?validate:bool ->
    ?hooks:hooks ->
    ?telemetry:Telemetry.sink ->
    src:Ir.func ->
    args:int list ->
    at:int ->
    target:Ir.func ->
    landing:int ->
    Reconstruct_ir.plan ->
    (Interp.outcome, Interp.trap) result * osr_outcome
  (** One-shot helper: run [src], transition at the [arrival]-th dynamic
      arrival at [at] into [target] at [landing] using [plan]; also report
      what the OSR machinery did. *)
end

module Make (E : Engine.S) : S with type machine = E.machine = struct
  type machine = E.machine

  (* Evaluate the parameter sources in the source frame. *)
  let eval_sources (m : E.machine) ~(at : int) (sources : Ir.value list) :
      (int list, Osr_error.t) result =
    let fname = (E.func m).Ir.fname in
    let exception Bad of Osr_error.t in
    try
      Ok
        (List.map
           (fun v ->
             match v with
             | Ir.Const n -> n
             | Ir.Undef ->
                 raise
                   (Bad
                      (Osr_error.Reconstruct_failed
                         { func = fname; at; what = "undef parameter source" }))
             | Ir.Reg r -> (
                 match E.read_reg m r with
                 | Some n -> n
                 | None ->
                     raise
                       (Bad
                          (Osr_error.Reconstruct_failed
                             {
                               func = fname;
                               at;
                               what = Printf.sprintf "source register %%%s not in frame" r;
                             }))))
           sources)
    with Bad e -> Error e

  (** Attempt the transition now, transactionally: build the continuation
      machine sharing the source machine's memory, run χ (the entry block)
      to the landing point, and validate the reconstructed frame.  [Ok]
      returns the continuation machine {e paused at the landing point},
      committed — statistics bumped, remark emitted.  [Error] means the
      attempt was rolled back: the shared memory is byte-identical to its
      pre-attempt state and the source machine is untouched, so the caller
      can simply keep stepping it. *)
  let fire ?(hooks = no_hooks) ?(validate = true) (m : E.machine) (site : E.machine gsite)
      : (E.machine, Osr_error.t) result =
    let fname = (E.func m).Ir.fname in
    match eval_sources m ~at:site.at site.cont.param_sources with
    | Error e -> Error e
    | Ok args -> (
        let tel = E.telemetry m in
        let mem = E.memory m in
        (* Transaction snapshot: χ may allocate and store before it traps;
           memory is the only state shared with the source frame. *)
        let snap_cells = Hashtbl.copy mem.Interp.cells in
        let snap_brk = mem.Interp.brk in
        let rollback () =
          Hashtbl.reset mem.Interp.cells;
          Hashtbl.iter (Hashtbl.replace mem.Interp.cells) snap_cells;
          mem.Interp.brk <- snap_brk
        in
        let fuel =
          match hooks.h_fuel_cut ~at:site.at with
          | Some n -> min n (E.fuel m)
          | None -> E.fuel m
        in
        match E.create ~memory:mem ~telemetry:tel ~fuel site.cont.fto ~args with
        | exception Interp.Trap t ->
            Error
              (Osr_error.Reconstruct_failed
                 { func = fname; at = site.at; what = Fmt.str "%a" Interp.pp_trap t })
        | cont -> (
            let entry = Ir.entry site.cont.fto in
            let n_chi = List.length entry.Ir.body + 1 in
            let chi_ids = Hashtbl.create 16 in
            List.iter (fun (i : Ir.instr) -> Hashtbl.replace chi_ids i.Ir.id ()) entry.Ir.body;
            Hashtbl.replace chi_ids entry.Ir.term_id ();
            let inject = hooks.h_chi_trap ~at:site.at in
            (* Step χ to the landing point (the entry block plus its
               terminator, whose edge moves run within the branch step). *)
            let rec run_chi k =
              match inject with
              | Some t when 2 * k >= n_chi -> `Chi_trap t
              | _ -> (
                  match E.next_instr_id cont with
                  | Some id when Hashtbl.mem chi_ids id -> (
                      match E.step cont with
                      | Interp.Running -> run_chi (k + 1)
                      | Interp.Trapped t -> `Chi_trap t
                      | Interp.Returned _ -> `Landed)
                  | Some _ | None -> `Landed)
            in
            match run_chi 0 with
            | `Chi_trap t ->
                rollback ();
                Error
                  (match t with
                  | Interp.Fuel_exhausted steps ->
                      Osr_error.Fuel_exhausted { func = site.cont.fto.Ir.fname; steps }
                  | t ->
                      Osr_error.Comp_trap
                        { func = fname; at = site.at; landing = site.cont.landing; trap = t })
            | `Landed -> (
                (match hooks.h_poison ~at:site.at ~live_in:site.cont.live_in with
                | Some r -> E.clear_reg cont r
                | None -> ());
                let missing =
                  if validate then
                    List.filter (fun r -> E.read_reg cont r = None) site.cont.live_in
                  else []
                in
                match missing with
                | _ :: _ ->
                    rollback ();
                    Error
                      (Osr_error.Frame_invalid
                         {
                           func = site.cont.fto.Ir.fname;
                           landing = site.cont.landing;
                           missing;
                         })
                | [] ->
                    (* Commit point: from here the transition is final. *)
                    Telemetry.bump tel stat_fired;
                    Telemetry.add tel stat_comp_instrs (List.length entry.Ir.body);
                    Telemetry.remark tel ~pass:"osr" ~func:fname ~instr:site.at (fun () ->
                        Printf.sprintf "transition fired at #%d into %s (|entry comp| = %d)"
                          site.at site.cont.fto.Ir.fname
                          (List.length entry.Ir.body));
                    Ok cont)))

  (** Run [machine], transferring control at the first armed point whose
      guard fires and whose transition commits; continue in the
      continuation to completion.  Aborted attempts disarm their site,
      count in [osr.transition.aborted], and leave the source run
      observably untouched. *)
  let run_with_osr ?(fuel = 10_000_000) ?(validate = true) ?(hooks = no_hooks)
      (machine : E.machine) (sites : E.machine gsite list) :
      (Interp.outcome, Interp.trap) result * osr_outcome =
    if E.fuel machine > fuel then E.set_fuel machine fuel;
    let fname = (E.func machine).Ir.fname in
    let tel = E.telemetry machine in
    (* Direct-indexed site table keyed by instruction id: O(1) per step, one
       guard evaluation per arrival.  Duplicate arming of a point keeps the
       first site, like the List.find_opt it replaces. *)
    let n = List.fold_left (fun acc s -> max acc (s.at + 1)) (E.func machine).Ir.next_id sites in
    let table : E.machine gsite option array = Array.make n None in
    List.iter
      (fun s -> if s.at >= 0 && table.(s.at) = None then table.(s.at) <- Some s)
      sites;
    let aborted = ref [] in
    let abort id (e : Osr_error.t) =
      table.(id) <- None;
      Telemetry.bump tel stat_aborted;
      Telemetry.remark tel ~pass:"osr" ~func:fname ~instr:id (fun () ->
          "transition aborted: " ^ Osr_error.to_string e);
      aborted := { abort_at = id; reason = e } :: !aborted
    in
    let outcome transition = { transition; aborted = List.rev !aborted } in
    let result_of_status () =
      match E.status machine with
      | Interp.Returned ret ->
          Ok
            { Interp.ret; events = List.rev (E.events_rev machine); steps = E.steps machine }
      | Interp.Trapped t -> Error t
      | Interp.Running ->
          raise
            (Osr_error.Error
               (Osr_error.Internal { what = "run_with_osr: finished on a running machine" }))
    in
    (* Guard evaluation is itself guarded: a trap (injected or raised by
       the guard closure) aborts the attempt instead of killing the run. *)
    let guard_decision (site : E.machine gsite) (id : int) : (bool, Osr_error.t) result =
      match hooks.h_guard_trap ~at:id with
      | Some t -> Error (Osr_error.Guard_trap { func = fname; at = id; trap = t })
      | None -> (
          match hooks.h_guard_override ~at:id with
          | Some b -> Ok b
          | None -> (
              match site.guard machine with
              | b -> Ok b
              | exception Interp.Trap t ->
                  Error (Osr_error.Guard_trap { func = fname; at = id; trap = t })
              | exception Osr_error.Error e -> Error e))
    in
    let rec go () =
      match E.next_instr_id machine with
      | None -> (result_of_status (), outcome None)
      | Some id -> (
          match (if id >= 0 && id < n then table.(id) else None) with
          | None -> advance ()
          | Some site -> (
              match guard_decision site id with
              | Error e ->
                  abort id e;
                  go ()
              | Ok false -> advance ()
              | Ok true -> (
                  match fire ~hooks ~validate machine site with
                  | Error e ->
                      abort id e;
                      go ()
                  | Ok cont_machine ->
                      (* The continuation already carries the remaining
                         budget (its fuel was derived from the source's);
                         max_int avoids re-clamping it. *)
                      let result = E.run_machine ~fuel:max_int cont_machine in
                      let result =
                        (* Events observed before the transition belong to
                           the activation. *)
                        match result with
                        | Ok o ->
                            Ok
                              {
                                o with
                                Interp.events =
                                  List.rev_append (E.events_rev machine) o.Interp.events;
                                steps = E.steps machine + o.Interp.steps;
                              }
                        | Error _ as e -> e
                      in
                      ( result,
                        outcome
                          (Some
                             {
                               fired_at = id;
                               comp_entry_instrs =
                                 List.length (Ir.entry site.cont.fto).Ir.body;
                             }) ))))
    and advance () =
      match E.step machine with
      | Interp.Running -> go ()
      | Interp.Returned _ | Interp.Trapped _ -> (result_of_status (), outcome None)
    in
    go ()

  (** One-shot helper used by tests, the CLI and benchmarks: run [src],
      transition at the [n]-th dynamic arrival (default first) at source
      point [at] into [target] at [landing] using [plan].  Returns the
      final result plus what the OSR machinery did (committed transition,
      aborted attempts). *)
  let run_transition ?(fuel = 10_000_000) ?(arrival = 0) ?(validate = true)
      ?(hooks = no_hooks) ?telemetry ~(src : Ir.func) ~(args : int list) ~(at : int)
      ~(target : Ir.func) ~(landing : int) (plan : Reconstruct_ir.plan) :
      (Interp.outcome, Interp.trap) result * osr_outcome =
    let cont = Contfun.generate target ~landing plan in
    let machine = E.create ?telemetry src ~args in
    let seen = ref 0 in
    let guard (_ : E.machine) =
      let hit = !seen = arrival in
      incr seen;
      hit
    in
    run_with_osr ~fuel ~validate ~hooks machine [ { at; guard; cont } ]
end

(* The reference-engine runtime (the historical top-level API). *)
include (Make (Engine.Reference) : S with type machine = Interp.machine)

(* The compiled-engine runtime. *)
module Compiled = Make (Engine.Compiled)
