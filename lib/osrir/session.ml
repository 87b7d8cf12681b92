open Import
module P = Passes.Pass_manager

type transition = {
  src : Ir.func;
  target : Ir.func;
  point : int;
  landing : int;
  plan : Reconstruct_ir.plan;
}

type t = {
  telemetry : Telemetry.sink;
  result : P.apply_result;
  pair : (Osr_ctx.t * Osr_ctx.t) Lazy.t;  (** forward, backward *)
  summaries : Feasibility.summary option array;  (** forward, backward *)
}

let of_result ?(telemetry = Telemetry.null) (result : P.apply_result) : t =
  let pair =
    lazy (Osr_ctx.make_pair ~fbase:result.fbase ~fopt:result.fopt ~mapper:result.mapper ())
  in
  { telemetry; result; pair; summaries = [| None; None |] }

let create ?telemetry (fbase : Ir.func) : t =
  of_result ?telemetry (P.apply ?telemetry fbase)

let result (s : t) : P.apply_result = s.result

let slot : Osr_ctx.direction -> int = function Base_to_opt -> 0 | Opt_to_base -> 1

let ctx (s : t) (dir : Osr_ctx.direction) : Osr_ctx.t =
  let fwd, bwd = Lazy.force s.pair in
  match dir with Base_to_opt -> fwd | Opt_to_base -> bwd

let summary ?pool (s : t) (dir : Osr_ctx.direction) : Feasibility.summary =
  match s.summaries.(slot dir) with
  | Some sum -> sum
  | None ->
      let sum = Feasibility.analyze ~telemetry:s.telemetry ?pool (ctx s dir) in
      s.summaries.(slot dir) <- Some sum;
      sum

let transitions (s : t) (dir : Osr_ctx.direction) : transition list =
  let c = ctx s dir in
  List.filter_map
    (fun (rep : Feasibility.point_report) ->
      match (rep.landing, rep.avail_plan) with
      | Some landing, Some plan ->
          Some { src = c.src.func; target = c.dst.func; point = rep.point; landing; plan }
      | _ -> None)
    (summary s dir).reports
