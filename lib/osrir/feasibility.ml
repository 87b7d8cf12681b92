open! Import

(** Per-point OSR feasibility analysis — the machinery behind Figures 7
    and 8 and Table 3: classify every source program point as

    - [Empty]: transition needs no compensation code at all (c = ⟨⟩ under
      the [live] variant, empty keep set);
    - [With_live]: the [live] variant builds a compensation plan;
    - [With_avail]: only the [avail] variant succeeds (values must be kept
      artificially alive);
    - [Infeasible]: even [avail] gives up (or the point has no landing
      correspondence in the destination version). *)

type classification =
  | Empty
  | With_live of Reconstruct_ir.plan
  | With_avail of Reconstruct_ir.plan
  | Infeasible

type point_report = {
  point : int;
  landing : int option;
  classification : classification;
  live_plan : Reconstruct_ir.plan option;  (** the live-variant plan, if any *)
  avail_plan : Reconstruct_ir.plan option;
}

type summary = {
  total_points : int;
  empty : int;
  live_ok : int;  (** feasible with the live variant (includes empty) *)
  avail_ok : int;  (** feasible with the avail variant (includes live_ok) *)
  reports : point_report list;
}

(* Reconstruct-outcome statistics (`--stats`): how every swept point
   classified, plus how much state the avail variant keeps alive. *)
let stat_points = Telemetry.counter ~group:"reconstruct" "points" ~desc:"source points analyzed"
let stat_empty = Telemetry.counter ~group:"reconstruct" "empty" ~desc:"points with c = <>"

let stat_live =
  Telemetry.counter ~group:"reconstruct" "live" ~desc:"points feasible via the live variant"

let stat_avail =
  Telemetry.counter ~group:"reconstruct" "avail"
    ~desc:"points feasible only via the avail variant"

let stat_infeasible =
  Telemetry.counter ~group:"reconstruct" "infeasible" ~desc:"points no variant can serve"

let stat_keep =
  Telemetry.counter ~group:"reconstruct" "keep_regs"
    ~desc:"registers kept artificially alive across avail plans"

(* Classify one source point against [t], bumping counters and emitting
   remarks through [telemetry].  This is the unit of work both the
   sequential sweep and the parallel chunks run: per-point output order and
   counter totals are identical whichever driver calls it. *)
let classify_point ~(config : Reconstruct_ir.config) ~(telemetry : Telemetry.sink)
    (t : Osr_ctx.t) ~(fname : string) (p : int) : point_report =
  Telemetry.bump telemetry stat_points;
  match Osr_ctx.landing_point t p with
  | None ->
      Telemetry.bump telemetry stat_infeasible;
      Telemetry.remark telemetry ~pass:"reconstruct" ~func:fname ~instr:p (fun () ->
          Printf.sprintf "bottom at point %d: no landing correspondence" p);
      { point = p; landing = None; classification = Infeasible; live_plan = None;
        avail_plan = None }
  | Some landing -> (
      let live, avail = Reconstruct_ir.for_point_both ~config t ~src_point:p ~landing in
      (match (live, avail) with
      | Ok lp, _ when Reconstruct_ir.plan_is_empty lp && lp.keep = [] ->
          Telemetry.bump telemetry stat_empty
      | Ok _, _ -> Telemetry.bump telemetry stat_live
      | Error _, Ok ap ->
          Telemetry.bump telemetry stat_avail;
          Telemetry.add telemetry stat_keep (List.length ap.Reconstruct_ir.keep);
          Telemetry.remark telemetry ~pass:"reconstruct" ~func:fname ~instr:p
            (fun () ->
              Printf.sprintf "point %d needs avail: keep {%s} alive" p
                (String.concat ", " ap.Reconstruct_ir.keep))
      | Error x, Error _ ->
          Telemetry.bump telemetry stat_infeasible;
          Telemetry.remark telemetry ~pass:"reconstruct" ~func:fname ~instr:p
            (fun () ->
              Printf.sprintf "bottom at point %d: %%%s unavailable in the source frame"
                p x));
      match (live, avail) with
      | Ok lp, _ when Reconstruct_ir.plan_is_empty lp && lp.keep = [] ->
          {
            point = p;
            landing = Some landing;
            classification = Empty;
            live_plan = Some lp;
            avail_plan = (match avail with Ok ap -> Some ap | Error _ -> None);
          }
      | Ok lp, _ ->
          {
            point = p;
            landing = Some landing;
            classification = With_live lp;
            live_plan = Some lp;
            avail_plan = (match avail with Ok ap -> Some ap | Error _ -> None);
          }
      | Error _, Ok ap ->
          {
            point = p;
            landing = Some landing;
            classification = With_avail ap;
            live_plan = None;
            avail_plan = Some ap;
          }
      | Error _, Error _ ->
          { point = p; landing = Some landing; classification = Infeasible;
            live_plan = None; avail_plan = None })

(* One fold computes every summary counter (the tiers nest: empty ⊆
   live_ok ⊆ avail_ok). *)
let summarize (reports : point_report list) : summary =
  let total_points, empty, live_ok, avail_ok =
    List.fold_left
      (fun (n, e, l, a) r ->
        match r.classification with
        | Empty -> (n + 1, e + 1, l + 1, a + 1)
        | With_live _ -> (n + 1, e, l + 1, a + 1)
        | With_avail _ -> (n + 1, e, l, a + 1)
        | Infeasible -> (n + 1, e, l, a))
      (0, 0, 0, 0) reports
  in
  { total_points; empty; live_ok; avail_ok; reports }

(** Classify every source point.  Without a pool (or with a 1-domain pool,
    or a single slice) this is the sequential sweep: no forks, no merge, no
    overhead.  With more domains the point list is cut into [chunk]-sized
    slices, each classified by whichever domain claims it using a
    domain-private {!Osr_ctx.fork} (fresh memo tables, shared read-only
    analyses — no locks on the hot path) and a task-private
    {!Telemetry.fork}.  Slices are concatenated and sub-sinks joined in
    slice order, so reports, counters and remarks are byte-equal to the
    sequential sweep's no matter the domain count or schedule — the
    determinism contract [test/suite_parallel.ml] checks. *)
let analyze ?(config = Reconstruct_ir.default_config) ?(telemetry = Telemetry.null)
    ?(pool : Parallel.Pool.t option) ?(chunk = 64) (t : Osr_ctx.t) : summary =
  let fname = t.Osr_ctx.src.Osr_ctx.func.Ir.fname in
  let points = Osr_ctx.source_points t in
  let chunk = max 1 chunk in
  let reports =
    Telemetry.with_span telemetry ~cat:"analysis" "feasibility" @@ fun () ->
    match pool with
    | Some pool when Parallel.Pool.jobs pool > 1 && List.compare_length_with points chunk > 0 ->
        let points = Array.of_list points in
        let n = Array.length points in
        let nchunks = (n + chunk - 1) / chunk in
        (* Freeze the shared state from the owning domain before any worker
           can touch it: forks created inside workers then only read. *)
        ignore (Osr_ctx.fork t : Osr_ctx.t);
        let sinks = Array.init nchunks (fun _ -> Telemetry.fork telemetry) in
        let slices =
          Parallel.Pool.run pool ~chunk:1
            ~scratch:(fun () -> Osr_ctx.fork t)
            (fun ctx ci ->
              let lo = ci * chunk in
              let hi = min n (lo + chunk) in
              let sink = sinks.(ci) in
              (* Ascending order inside the slice: remark emission order must
                 match the sequential sweep's. *)
              let acc = ref [] in
              for i = lo to hi - 1 do
                acc := classify_point ~config ~telemetry:sink ctx ~fname points.(i) :: !acc
              done;
              List.rev !acc)
            nchunks
        in
        Array.iter (Telemetry.join telemetry) sinks;
        List.concat (Array.to_list slices)
    | Some _ | None -> List.map (classify_point ~config ~telemetry t ~fname) points
  in
  summarize reports

(** Percentages for the Figure 7/8 stacked bars. *)
let percentages (s : summary) : float * float * float =
  let pct n = 100.0 *. float_of_int n /. float_of_int (max 1 s.total_points) in
  (pct s.empty, pct s.live_ok, pct s.avail_ok)

(** Compensation-code size statistics over the feasible points — the |c|
    columns of Table 3.  [`Live] averages over live-feasible points,
    [`Avail] over all avail-feasible points (the paper's note: "averages
    are calculated on different sets of program points"). *)
let comp_stats (s : summary) (which : [ `Live | `Avail ]) : float * int =
  let sizes =
    List.filter_map
      (fun r ->
        match which with
        | `Live -> Option.map Reconstruct_ir.comp_size r.live_plan
        | `Avail -> Option.map Reconstruct_ir.comp_size r.avail_plan)
      s.reports
  in
  match sizes with
  | [] -> (0.0, 0)
  | _ ->
      let sum = List.fold_left ( + ) 0 sizes in
      (float_of_int sum /. float_of_int (List.length sizes), List.fold_left max 0 sizes)

(** Keep-set size statistics (|K_avail| of Table 3) over the points that
    actually keep something alive. *)
let keep_stats (s : summary) : float * int =
  let sizes =
    List.filter_map
      (fun r ->
        match r.avail_plan with
        | Some p when p.keep <> [] -> Some (List.length p.keep)
        | Some _ | None -> None)
      s.reports
  in
  match sizes with
  | [] -> (0.0, 0)
  | _ ->
      let sum = List.fold_left ( + ) 0 sizes in
      (float_of_int sum /. float_of_int (List.length sizes), List.fold_left max 0 sizes)
