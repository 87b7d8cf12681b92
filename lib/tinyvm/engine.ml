(** Execution engines for TinyVM.

    {!module-type:S} is the step-wise machine API the OSR layer depends
    on: create at entry, step one program point at a time, pause anywhere,
    observe the current point via [next_instr_id], read/write the frame
    by register name, and run until an armed program point asks to stop
    ([run_armed], how OSR points are checked).  Two implementations:

    - {!Reference}: the original tree-walking {!Interp}, wrapped unchanged;
      its [run_armed] polls [next_instr_id] before every step, and it is
      the oracle the compiled engine is tested against;
    - {!Compiled}: one dispatch loop over {!Compile.program} — numbered
      frame slots, pre-resolved branches, φ-nodes as per-edge parallel
      moves, and the armed check inline at each instruction.

    Both produce byte-identical observables: same [outcome] (return value,
    event trace, step count), same traps with the same payloads, and the
    same sequence of [next_instr_id] values, so OSR transitions and the
    differential tests run on either engine interchangeably. *)

module Ir = Miniir.Ir

(** Why {!S.run_armed} returned. *)
type pause =
  | Halted  (** the machine returned or trapped; see [status] *)
  | At_armed
      (** paused before an armed instruction whose [stop] callback
          returned [true]; the instruction has not run *)
  | Out_of_budget  (** the step budget ran out; the machine is still running *)

(** The step-wise machine API common to both engines. *)
module type S = sig
  val name : string

  type machine

  val create :
    ?memory:Interp.memory ->
    ?telemetry:Telemetry.sink ->
    ?fuel:int ->
    Ir.func ->
    args:int list ->
    machine
  (** Fresh machine at the function's entry.  Shares [memory] when given
      (how OSR transitions keep the store invariant).  [fuel] (default
      unlimited) bounds the machine's lifetime step count; exhaustion traps
      with [Interp.Fuel_exhausted].
      @raise Interp.Trap on an argument-count mismatch *)

  val step : machine -> Interp.status
  (** Execute one instruction or terminator (φ-moves run on the taken
      edge, within the branch's step). *)

  val status : machine -> Interp.status
  val next_instr_id : machine -> int option
  val func : machine -> Ir.func
  val memory : machine -> Interp.memory
  val telemetry : machine -> Telemetry.sink
  val steps : machine -> int

  val fuel : machine -> int
  (** Remaining step budget ([max_int] = unlimited). *)

  val set_fuel : machine -> int -> unit

  val events_rev : machine -> Interp.event list
  (** Observable events so far, most recent first. *)

  val read_reg : machine -> Ir.reg -> int option
  (** [None] when the register is currently undefined (or unknown). *)

  val write_reg : machine -> Ir.reg -> int -> unit
  (** @raise Osr_error.Error ([Unknown_register]) when the engine has no
      storage for the register *)

  val clear_reg : machine -> Ir.reg -> unit
  (** Make the register read as undefined (fault injection / frame
      surgery). *)

  val run_machine : ?fuel:int -> machine -> (Interp.outcome, Interp.trap) result
  (** Run to completion; [fuel] (default 10M) further clamps the machine's
      remaining budget.  Exhaustion is [Error (Fuel_exhausted _)], never an
      exception. *)

  val run :
    ?fuel:int ->
    ?memory:Interp.memory ->
    ?telemetry:Telemetry.sink ->
    Ir.func ->
    args:int list ->
    (Interp.outcome, Interp.trap) result

  val run_to_point : ?fuel:int -> ?skip:int -> machine -> point:int -> machine option
  (** Run until the machine is about to execute [point], passing over
      [skip] (default 0) arrivals there first.  [None] when it halts
      first, or when [fuel] (default 10M) steps run out, which leaves it
      running and resumable.  A negative [fuel] never runs out. *)

  val run_armed :
    ?budget:int -> machine -> armed:bool array -> stop:(int -> bool) -> pause
  (** Run until the machine halts, [budget] steps have run (default and
      any negative value: no limit), or it is about to execute an
      instruction [id] with [armed.(id)] set and [stop id] returning
      [true].  Ids outside [armed] are unarmed.  [stop id] runs once per
      arrival at an armed [id], before the fuel check and before the
      instruction.  It may read the machine and clear entries of [armed],
      but must not run the machine.  An exception it raises propagates,
      with the machine paused at the arrival. *)
end

(* ------------------------------------------------------------------ *)
(* Reference engine: the tree-walking interpreter, unchanged            *)
(* ------------------------------------------------------------------ *)

module Reference : S with type machine = Interp.machine = struct
  let name = "ref"

  type machine = Interp.machine

  let create = Interp.create
  let step = Interp.step
  let status (m : machine) = m.Interp.status
  let next_instr_id = Interp.next_instr_id
  let func (m : machine) = m.Interp.func
  let memory (m : machine) = m.Interp.memory
  let telemetry (m : machine) = m.Interp.tel
  let steps (m : machine) = m.Interp.steps
  let fuel = Interp.fuel_left
  let set_fuel = Interp.set_fuel
  let events_rev (m : machine) = m.Interp.events
  let read_reg (m : machine) (r : Ir.reg) = Hashtbl.find_opt m.Interp.frame r
  let write_reg (m : machine) (r : Ir.reg) (v : int) = Hashtbl.replace m.Interp.frame r v
  let clear_reg (m : machine) (r : Ir.reg) = Hashtbl.remove m.Interp.frame r
  let run_machine = Interp.run_machine
  let run = Interp.run
  let run_to_point = Interp.run_to_point

  (* The polled loop: look at the next point before every step. *)
  let run_armed ?(budget = max_int) (m : machine) ~(armed : bool array) ~(stop : int -> bool) :
      pause =
    let n = Array.length armed in
    let rec go budget =
      match Interp.next_instr_id m with
      | None -> Halted
      | Some _ when budget = 0 -> Out_of_budget
      | Some id when id >= 0 && id < n && armed.(id) && stop id -> At_armed
      | Some _ ->
          ignore (Interp.step m : Interp.status);
          go (budget - 1)
    in
    go budget
end

(* ------------------------------------------------------------------ *)
(* Compiled engine: dispatch over the flat program                      *)
(* ------------------------------------------------------------------ *)

(** {!Passes.Fold.eval_binop} without the [option]: where that returns
    [None] this raises the trap the reference engine reports for
    instruction [at]. *)
let eval_binop ~(at : int) (op : Ir.binop) (a : int) (b : int) : int =
  match op with
  | Ir.Add -> a + b
  | Ir.Sub -> a - b
  | Ir.Mul -> a * b
  | Ir.Sdiv -> if b = 0 then raise (Interp.Trap (Division_by_zero at)) else a / b
  | Ir.Srem -> if b = 0 then raise (Interp.Trap (Division_by_zero at)) else a mod b
  | Ir.Shl -> if b < 0 || b > 62 then raise (Interp.Trap (Shift_out_of_range at)) else a lsl b
  | Ir.Lshr ->
      if b < 0 || b > 62 then raise (Interp.Trap (Shift_out_of_range at))
      else (a land max_int) lsr b
  | Ir.Ashr -> if b < 0 || b > 62 then raise (Interp.Trap (Shift_out_of_range at)) else a asr b
  | Ir.And -> a land b
  | Ir.Or -> a lor b
  | Ir.Xor -> a lxor b

let stat_compiled_steps =
  Telemetry.counter ~group:"interp" "compiled_steps"
    ~desc:"instructions executed by the compiled engine"

module Compiled = struct
  let name = "compiled"

  open Compile

  type machine = {
    prog : program;
    frame : int array;
    defined : bool array;
    memory : Interp.memory;
    mutable pc : int;
    mutable status : Interp.status;
    mutable steps : int;
    mutable fuel_stop : int;
        (** absolute [steps] value at which execution traps; [max_int] =
            unlimited (stop line, not countdown — see [Interp.fuel_stop]) *)
    mutable events : Interp.event list;  (** reversed *)
    tel : Telemetry.sink;
    scratch : int array;  (** φ-move read buffer (overlapping edges) *)
    scratch_def : bool array;
    mutable armed : bool array;
    mutable stop : int -> bool;
    mutable budget_stop : int;
        (** the current [run_armed] call's arguments ([budget_stop] as an
            absolute [steps] value), kept here so the dispatch loop carries
            one live value, the machine, across the calls it makes *)
    mutable in_stop : bool;
        (** a [run_armed] stop callback is running: a trap it raises is
            not the machine's *)
  }

  let unarmed : bool array = [||]
  let never (_ : int) = false

  let of_program ?memory ?(telemetry = Telemetry.null) ?(fuel = max_int) (p : program)
      ~(args : int list) : machine =
    if List.length args <> List.length p.func.Ir.params then
      raise (Interp.Trap (Bad_arity p.func.Ir.fname));
    let frame = Array.make (max 1 p.nslots) 0 in
    let defined = Array.make (max 1 p.nslots) false in
    List.iteri
      (fun i a ->
        frame.(p.param_slots.(i)) <- a;
        defined.(p.param_slots.(i)) <- true)
      args;
    {
      prog = p;
      frame;
      defined;
      memory = (match memory with Some m -> m | None -> Interp.fresh_memory ());
      pc = p.entry_pc;
      status = Running;
      steps = 0;
      fuel_stop = fuel;
      events = [];
      tel = telemetry;
      scratch = Array.make (max 1 p.max_moves) 0;
      scratch_def = Array.make (max 1 p.max_moves) false;
      armed = unarmed;
      stop = never;
      budget_stop = max_int;
      in_stop = false;
    }

  let create ?memory ?telemetry ?fuel (f : Ir.func) ~(args : int list) : machine =
    if List.length args <> List.length f.Ir.params then
      raise (Interp.Trap (Bad_arity f.Ir.fname));
    of_program ?memory ?telemetry ?fuel (compile ?telemetry f) ~args

  let[@inline] read (m : machine) ~(at : int) (o : operand) : int =
    match o with
    | Const n -> n
    | Slot k ->
        if m.defined.(k) then m.frame.(k) else raise (Interp.Trap (Undef_read at))
    | Undef -> raise (Interp.Trap (Undef_read at))

  let[@inline] write (m : machine) (dst : int) (v : int) : unit =
    if dst >= 0 then begin
      m.frame.(dst) <- v;
      m.defined.(dst) <- true
    end

  (* Parallel moves of one edge: the reference reads every φ source first
     (trapping in φ order), then writes all destinations.  Without
     source/destination overlap a single in-order pass is equivalent on
     every non-trapping run (a post-trap frame is unobservable); with
     overlap — swaps, cycles, permutations — the read phase goes through
     the scratch buffer. *)
  let exec_moves (m : machine) (mv : moves) : unit =
    let n = Array.length mv.mv_dst in
    if not mv.mv_overlap then
      for j = 0 to n - 1 do
        let d = mv.mv_dst.(j) in
        match mv.mv_src.(j) with
        | Const v -> write m d v
        | Slot k ->
            if m.defined.(k) then write m d m.frame.(k)
            else raise (Interp.Trap (Undef_read mv.mv_at.(j)))
        | Undef -> if d >= 0 then m.defined.(d) <- false
      done
    else begin
      for j = 0 to n - 1 do
        match mv.mv_src.(j) with
        | Const v ->
            m.scratch.(j) <- v;
            m.scratch_def.(j) <- true
        | Slot k ->
            if m.defined.(k) then begin
              m.scratch.(j) <- m.frame.(k);
              m.scratch_def.(j) <- true
            end
            else raise (Interp.Trap (Undef_read mv.mv_at.(j)))
        | Undef -> m.scratch_def.(j) <- false
      done;
      for j = 0 to n - 1 do
        let d = mv.mv_dst.(j) in
        if d >= 0 then
          if m.scratch_def.(j) then begin
            m.frame.(d) <- m.scratch.(j);
            m.defined.(d) <- true
          end
          else m.defined.(d) <- false
      done
    end;
    if mv.mv_bad >= 0 then raise (Interp.Trap (Undef_read mv.mv_bad))

  let[@inline] take_jump (m : machine) (j : jump) : unit =
    match j with
    | Jump e ->
        exec_moves m e.moves;
        m.pc <- e.target_pc
    | Jump_missing l -> raise (Interp.Trap (No_such_block l))

  let exec_intrinsic_args (m : machine) ~(at : int) (ops : operand array) : int list =
    Array.fold_right (fun o acc -> read m ~at o :: acc) ops []

  (* The dispatch loop, the compiled engine's only one.  Per instruction:
     the budget line, one [armed] load (the OSR point check), the fuel
     line, then the op.  Traps raise [Interp.Trap] to the single handler
     in [run_armed], which also flushes the step counters once per call. *)
  let rec loop (m : machine) : pause =
    let steps = m.steps in
    if steps >= m.budget_stop then Out_of_budget
    else
      let pc = m.pc in
      let at = m.prog.ids.(pc) in
      if
        at < Array.length m.armed
        && m.armed.(at)
        &&
        (m.in_stop <- true;
         let fire = m.stop at in
         m.in_stop <- false;
         fire)
      then At_armed
      else if steps >= m.fuel_stop then begin
        m.status <- Trapped (Fuel_exhausted steps);
        Telemetry.bump m.tel Interp.stat_traps;
        Halted
      end
      else begin
        m.steps <- steps + 1;
        (match m.prog.code.(pc) with
        | Obinop (dst, op, a, b) ->
            write m dst (eval_binop ~at op (read m ~at a) (read m ~at b));
            m.pc <- pc + 1
        | Oicmp (dst, op, a, b) ->
            write m dst (Passes.Fold.eval_icmp op (read m ~at a) (read m ~at b));
            m.pc <- pc + 1
        | Oselect (dst, c, t, e) ->
            let cv = read m ~at c in
            let tv = read m ~at t and ev = read m ~at e in
            write m dst (if cv <> 0 then tv else ev);
            m.pc <- pc + 1
        | Oalloca (dst, n) ->
            let addr = m.memory.Interp.brk in
            m.memory.Interp.brk <- addr + max 1 n;
            write m dst addr;
            m.pc <- pc + 1
        | Oload (dst, a) ->
            write m dst (Interp.mem_load m.memory (read m ~at a));
            m.pc <- pc + 1
        | Ostore (dst, v, a) ->
            Interp.mem_store m.memory (read m ~at a) (read m ~at v);
            (* the reference writes 0 to a (malformed) store result *)
            write m dst 0;
            m.pc <- pc + 1
        | Ocall1 (dst, f, a) ->
            write m dst (f (read m ~at a));
            m.pc <- pc + 1
        | Ocall2 (dst, f, a, b) ->
            write m dst (f (read m ~at a) (read m ~at b));
            m.pc <- pc + 1
        | Ocall_event (dst, name, ops) ->
            let args = exec_intrinsic_args m ~at ops in
            Telemetry.bump m.tel Interp.stat_events;
            m.events <- { Interp.callee = name; arg_values = args } :: m.events;
            write m dst 0;
            m.pc <- pc + 1
        | Ocall_seed (dst, a) ->
            write m dst (read m ~at a * 48271 land 0xFFFF);
            m.pc <- pc + 1
        | Ocall_bad_arity (name, ops) ->
            ignore (exec_intrinsic_args m ~at ops : int list);
            raise (Interp.Trap (Bad_arity name))
        | Ocall_unknown (name, ops) ->
            ignore (exec_intrinsic_args m ~at ops : int list);
            raise (Interp.Trap (Unknown_intrinsic (name, at)))
        | Otrap_undef -> raise (Interp.Trap (Undef_read at))
        | Obr j -> take_jump m j
        | Ocbr (c, t, e) -> take_jump m (if read m ~at c <> 0 then t else e)
        | Oret v ->
            m.status <- Returned (read m ~at v);
            Telemetry.bump m.tel Interp.stat_returns
        | Ounreachable l -> raise (Interp.Trap (Unreachable_reached l)));
        match m.status with
        | Running -> loop m
        | Returned _ | Trapped _ -> Halted
      end

  let count_steps (m : machine) ~(from : int) : unit =
    let n = m.steps - from in
    if n > 0 then begin
      Telemetry.add m.tel Interp.stat_steps n;
      Telemetry.add m.tel stat_compiled_steps n
    end

  let run_armed ?(budget = max_int) (m : machine) ~(armed : bool array)
      ~(stop : int -> bool) : pause =
    match m.status with
    | Returned _ | Trapped _ -> Halted
    | Running ->
        let from = m.steps in
        m.budget_stop <-
          (if budget < 0 || budget >= max_int - from then max_int else from + budget);
        m.armed <- armed;
        m.stop <- stop;
        let pause =
          match loop m with
          | pause -> pause
          | exception Interp.Trap t when not m.in_stop ->
              m.status <- Trapped t;
              Telemetry.bump m.tel Interp.stat_traps;
              Halted
          | exception e ->
              m.in_stop <- false;
              count_steps m ~from;
              raise e
        in
        count_steps m ~from;
        pause

  let step (m : machine) : Interp.status =
    ignore (run_armed ~budget:1 m ~armed:unarmed ~stop:never : pause);
    m.status

  let status (m : machine) = m.status

  let next_instr_id (m : machine) : int option =
    match m.status with
    | Returned _ | Trapped _ -> None
    | Running -> Some m.prog.ids.(m.pc)

  let func (m : machine) = m.prog.func
  let memory (m : machine) = m.memory
  let telemetry (m : machine) = m.tel
  let steps (m : machine) = m.steps
  let fuel (m : machine) =
    if m.fuel_stop = max_int then max_int else m.fuel_stop - m.steps

  let set_fuel (m : machine) n =
    m.fuel_stop <- (if n >= max_int - m.steps then max_int else m.steps + n)
  let events_rev (m : machine) = m.events

  let read_reg (m : machine) (r : Ir.reg) : int option =
    match Compile.slot_of_reg m.prog r with
    | Some k when m.defined.(k) -> Some m.frame.(k)
    | Some _ | None -> None

  let write_reg (m : machine) (r : Ir.reg) (v : int) : unit =
    match Compile.slot_of_reg m.prog r with
    | Some k ->
        m.frame.(k) <- v;
        m.defined.(k) <- true
    | None ->
        raise
          (Osr_error.Error
             (Osr_error.Unknown_register { func = m.prog.func.Ir.fname; reg = r }))

  let clear_reg (m : machine) (r : Ir.reg) : unit =
    match Compile.slot_of_reg m.prog r with
    | Some k -> m.defined.(k) <- false
    | None -> ()

  let run_machine ?(fuel = 10_000_000) (m : machine) : (Interp.outcome, Interp.trap) result
      =
    if (if m.fuel_stop = max_int then max_int else m.fuel_stop - m.steps) > fuel then
      m.fuel_stop <- m.steps + fuel;
    ignore (run_armed m ~armed:unarmed ~stop:never : pause);
    match m.status with
    | Returned ret -> Ok { Interp.ret; events = List.rev m.events; steps = m.steps }
    | Trapped t -> Error t
    | Running ->
        raise (Osr_error.Error (Osr_error.Internal { what = "run_machine: machine still running" }))

  let run ?fuel ?memory ?telemetry (f : Ir.func) ~(args : int list) :
      (Interp.outcome, Interp.trap) result =
    match create ?memory ?telemetry f ~args with
    | m -> run_machine ?fuel m
    | exception Interp.Trap t -> Error t

  let run_to_point ?(fuel = 10_000_000) ?(skip = 0) (m : machine) ~(point : int) :
      machine option =
    let armed =
      if Array.exists (fun id -> id = point) m.prog.ids then
        Array.init (point + 1) (fun id -> id = point)
      else unarmed
    in
    let skip = ref skip in
    let stop _ =
      if !skip = 0 then true
      else begin
        decr skip;
        false
      end
    in
    match run_armed ~budget:fuel m ~armed ~stop with
    | At_armed -> Some m
    | Halted | Out_of_budget -> None
end

(* The Compiled struct must satisfy the engine signature (checked here;
   the module itself stays unconstrained so [of_program]/[Compile] extras
   remain visible). *)
module Compiled_checked : S = Compiled

(** Engines by CLI name. *)
let of_name : string -> (module S) option = function
  | "ref" | "reference" -> Some (module Reference)
  | "compiled" -> Some (module Compiled)
  | _ -> None

let of_name_exn (name : string) : (module S) =
  match of_name name with
  | Some e -> e
  | None ->
      raise (Osr_error.Error (Osr_error.Engine_mismatch { expected = "ref|compiled"; got = name }))

let all : (module S) list = [ (module Reference); (module Compiled) ]
