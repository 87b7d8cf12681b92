open Import

(** The analyses one pass of the pipeline reads: the function index and the
    dominators that the verification of the pass's input built from that
    very IR (see {!Pass_manager.apply}), and the natural loops, computed
    from those two on first request.

    A manager lives from one verification to the end of the next pass: the
    pass manager makes a fresh one after every verification, so no analysis
    outlives the version of the function it describes, whatever a pass
    reports about its own changes.  A pass that changes the CFG and still
    needs analyses of its own output (LoopCanon, after a preheader) builds
    a new manager itself. *)

type t = {
  tel : Telemetry.sink;
  index : Func_index.t;
  dom : Dom.t;
  mutable loops : Loops.t option;
}

(* One computed/read pair per analysis — the numbers behind `--stats` and
   the [am.*] lines of the cost gate ([test/costs.expected]). *)
let stat_hit (what : string) =
  Telemetry.counter ~group:"am" (what ^ ".hit") ~desc:(what ^ " read by a pass")

let stat_miss (what : string) =
  Telemetry.counter ~group:"am" (what ^ ".miss") ~desc:(what ^ " computed")

let hit_index = stat_hit "index"
and miss_index = stat_miss "index"

let hit_dom = stat_hit "dom"
and miss_dom = stat_miss "dom"

let hit_loops = stat_hit "loops"
and miss_loops = stat_miss "loops"

(** A manager over [index] and [dom], both just built from the same
    version of the function. *)
let create ~(telemetry : Telemetry.sink) (index : Func_index.t) (dom : Dom.t) : t =
  Telemetry.bump telemetry miss_index;
  Telemetry.bump telemetry miss_dom;
  { tel = telemetry; index; dom; loops = None }

let index (t : t) : Func_index.t =
  Telemetry.bump t.tel hit_index;
  t.index

let dom (t : t) : Dom.t =
  Telemetry.bump t.tel hit_dom;
  t.dom

let loops (t : t) : Loops.t =
  match t.loops with
  | Some l ->
      Telemetry.bump t.tel hit_loops;
      l
  | None ->
      Telemetry.bump t.tel miss_loops;
      let l = Loops.compute t.index t.dom in
      t.loops <- Some l;
      l
