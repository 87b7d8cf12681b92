open Import

(** One function's staged OSR pipeline (Section 5.4): optimize a clone
    while the CodeMapper records every action, derive both OSR directions
    from that record, classify every point of a direction, and list the
    transitions that can fire.

    Each stage runs at most once per session and only when first asked
    for: {!create} runs the pass pipeline, {!ctx} builds both directions
    with one {!Osr_ctx.make_pair}, {!summary} runs one direction's sweep.
    Every stage that emits telemetry does so under the sink given to
    {!create}.  A session is owned by one domain (its stages are lazy);
    {!summary}'s [pool] shards the sweep itself. *)

type t

type transition = {
  src : Ir.func;  (** the version execution leaves *)
  target : Ir.func;  (** the version execution lands in *)
  point : int;  (** source point where the transition fires *)
  landing : int;  (** landing point in [target] *)
  plan : Reconstruct_ir.plan;  (** the avail-variant compensation plan *)
}

val create : ?telemetry:Telemetry.sink -> Ir.func -> t
(** [Pass_manager.apply] over [fbase] (the standard pipeline, sandboxed)
    under [telemetry]. *)

val of_result : ?telemetry:Telemetry.sink -> Passes.Pass_manager.apply_result -> t
(** A session over an existing [apply] result (a custom pipeline, or a
    corpus applied across a pool); later stages run under [telemetry]. *)

val result : t -> Passes.Pass_manager.apply_result

val ctx : t -> Osr_ctx.direction -> Osr_ctx.t
(** The direction's context; the first call builds both. *)

val summary : ?pool:Parallel.Pool.t -> t -> Osr_ctx.direction -> Feasibility.summary
(** The direction's feasibility sweep, run on the first call (through
    [pool] when given) and returned as is afterwards. *)

val transitions : t -> Osr_ctx.direction -> transition list
(** The points of {!summary} that have a landing and an avail plan, in
    report order. *)
