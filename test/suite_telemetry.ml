(** Tests for the telemetry library: sink-gated counters, nested spans with
    self-time accounting, Chrome-trace export (validated with the in-tree
    JSON reader), remark filtering, and the null-sink differential — running
    the pipeline instrumented must not change its results. *)

module T = Telemetry
module J = Telemetry.Json
module Ir = Miniir.Ir
module P = Passes.Pass_manager
module Interp = Tinyvm.Interp

(* A deterministic clock: every reading advances one millisecond. *)
let fake_clock () =
  let t = ref 0.0 in
  fun () ->
    let v = !t in
    t := v +. 0.001;
    v

let ms = Alcotest.float 1e-9

(* -------------------- counters -------------------- *)

let c_gate = T.counter ~group:"test" "gating" ~desc:"suite-local test counter"
let c_span = T.counter ~group:"test" "spanned"

let test_counter_gating () =
  T.reset_counters ();
  T.bump T.null c_gate;
  T.add T.null c_gate 5;
  Alcotest.(check int) "null sink never counts" 0 c_gate.T.value;
  let s = T.create ~clock:(fake_clock ()) () in
  T.bump s c_gate;
  T.add s c_gate 4;
  Alcotest.(check int) "live sink counts" 5 c_gate.T.value;
  Alcotest.(check bool) "visible among nonzero counters" true
    (List.exists
       (fun (c : T.counter) -> c.T.group = "test" && c.T.cname = "gating")
       (T.nonzero_counters ()));
  T.reset_counters ();
  Alcotest.(check int) "reset zeroes" 0 c_gate.T.value

(* -------------------- spans -------------------- *)

let test_nested_spans () =
  T.reset_counters ();
  let s = T.create ~clock:(fake_clock ()) () in
  let v =
    T.with_span s "outer" (fun () ->
        T.bump s c_span;
        2 * T.with_span s "inner" (fun () -> T.bump s c_span; 21))
  in
  Alcotest.(check int) "value passes through" 42 v;
  Alcotest.(check int) "bumps inside spans counted" 2 c_span.T.value;
  (* Clock readings: t0=0, outer start=1ms, inner start=2ms, inner end=3ms,
     outer end=4ms → inner total/self 1ms, outer total 3ms, self 2ms. *)
  (match T.span_rows s with
  | [ ("outer", 1, t_out, self_out); ("inner", 1, t_in, self_in) ] ->
      Alcotest.check ms "outer total" 0.003 t_out;
      Alcotest.check ms "outer self excludes child" 0.002 self_out;
      Alcotest.check ms "inner total" 0.001 t_in;
      Alcotest.check ms "inner self" 0.001 self_in
  | rows -> Alcotest.failf "unexpected span rows (%d)" (List.length rows));
  T.reset_counters ()

let test_span_exception_safe () =
  let s = T.create ~clock:(fake_clock ()) () in
  (try T.with_span s "boom" (fun () -> failwith "inner failure") with Failure _ -> ());
  Alcotest.(check int) "span closed despite exception" 1 (List.length (T.trace_events s));
  (* The stack is balanced again: a following span nests at top level. *)
  T.with_span s "after" (fun () -> ());
  match T.span_rows s with
  | [ (_, 1, _, _); (_, 1, _, _) ] -> ()
  | _ -> Alcotest.fail "unbalanced span stack after exception"

(* -------------------- Chrome trace -------------------- *)

let test_chrome_trace_valid () =
  let s = T.create ~clock:(fake_clock ()) () in
  T.with_span s ~cat:"pass" "outer" (fun () ->
      T.with_span s ~cat:"analysis" "inner" (fun () -> ()));
  T.with_span s "flat" (fun () -> ());
  let doc = T.chrome_trace s in
  match J.parse doc with
  | Error e -> Alcotest.failf "trace JSON unparseable: %s" e
  | Ok json -> (
      match J.member "traceEvents" json with
      | Some (J.Arr events) ->
          Alcotest.(check int) "one event per completed span" 3 (List.length events);
          let field ev name = J.member name ev in
          List.iter
            (fun ev ->
              match (field ev "ph", field ev "name", field ev "ts", field ev "dur") with
              | Some (J.Str "X"), Some (J.Str _), Some (J.Num ts), Some (J.Num dur) ->
                  Alcotest.(check bool) "nonnegative ts/dur" true (ts >= 0.0 && dur >= 0.0)
              | _ -> Alcotest.fail "event is not a complete \"X\" event")
            events;
          let interval name =
            let ev =
              List.find
                (fun ev -> field ev "name" = Some (J.Str name))
                events
            in
            match (field ev "ts", field ev "dur") with
            | Some (J.Num ts), Some (J.Num dur) -> (ts, ts +. dur)
            | _ -> Alcotest.fail "missing ts/dur"
          in
          let os, oe = interval "outer" and is_, ie = interval "inner" in
          Alcotest.(check bool) "inner nests within outer" true (os <= is_ && ie <= oe)
      | Some _ | None -> Alcotest.fail "no traceEvents array")

let test_counters_json_parses () =
  T.reset_counters ();
  let s = T.create ~clock:(fake_clock ()) () in
  T.add s c_gate 7;
  (match J.parse (T.counters_json ()) with
  | Error e -> Alcotest.failf "counters JSON unparseable: %s" e
  | Ok json -> (
      match J.member "test.gating" json with
      | Some entry ->
          Alcotest.(check (option (float 0.0))) "value serialized" (Some 7.0)
            (Option.bind (J.member "value" entry) J.to_float)
      | None -> Alcotest.fail "registered counter missing from JSON"));
  (* The tabular exports fit Report.table's header contract. *)
  ignore
    (Report.table ~header:[ "counter"; "value"; "description" ] (T.counter_rows ()) : string);
  ignore
    (Report.table ~header:[ "span"; "count"; "total (ms)"; "self (ms)" ] (T.timing_rows s)
      : string);
  T.reset_counters ()

(* -------------------- remarks -------------------- *)

let test_remarks () =
  let s = T.create ~clock:(fake_clock ()) () in
  T.remark s ~pass:"CSE" ~func:"f" ~block:"entry" ~instr:3 (fun () -> "one");
  T.remark s ~pass:"LICM" (fun () -> "two");
  Alcotest.(check int) "all remarks kept in order" 2 (List.length (T.remarks s));
  (match T.remarks ~pass:"CSE" s with
  | [ r ] ->
      Alcotest.(check string) "message" "one" r.T.rmsg;
      let str = T.remark_to_string r in
      Alcotest.(check bool) "pass and location rendered" true
        (let has needle =
           let n = String.length needle in
           let rec go i =
             i + n <= String.length str && (String.sub str i n = needle || go (i + 1))
           in
           go 0
         in
         has "[CSE]" && has "#3" && has "f")
  | rs -> Alcotest.failf "pass filter returned %d remarks" (List.length rs));
  (* A disabled sink must never run the message thunk. *)
  let tripped = ref false in
  T.remark T.null ~pass:"x" (fun () ->
      tripped := true;
      "never");
  Alcotest.(check bool) "thunk not forced on null sink" false !tripped;
  Alcotest.(check int) "null sink keeps no remarks" 0 (List.length (T.remarks T.null))

(* -------------------- null-sink differential -------------------- *)

(* Instrumentation must be observation only: optimizing with a live sink
   yields byte-identical functions and identical per-pass action counts. *)
let test_null_sink_differential () =
  List.iter
    (fun (entry : Corpus.Kernels.entry) ->
      let fbase, _dbg = Corpus.Dsl.to_fbase entry.kernel in
      let plain = P.apply fbase in
      T.reset_counters ();
      let live = P.apply ~telemetry:(T.create ()) fbase in
      Alcotest.(check string)
        (entry.benchmark ^ ": fopt byte-identical")
        (Ir.func_to_string plain.P.fopt)
        (Ir.func_to_string live.P.fopt);
      Alcotest.(check bool)
        (entry.benchmark ^ ": per-pass counts equal")
        true
        (plain.P.per_pass = live.P.per_pass))
    Corpus.Kernels.all;
  T.reset_counters ()

(* One instrumented end-to-end flow populates every counter group the CLI's
   --stats acceptance relies on. *)
let test_pipeline_populates_counters () =
  T.reset_counters ();
  let s = T.create () in
  let entry = List.hd Corpus.Kernels.all in
  let fbase, _dbg = Corpus.Dsl.to_fbase entry.kernel in
  let session = Osrir.Session.create ~telemetry:s fbase in
  let _ = Osrir.Session.summary session Osrir.Osr_ctx.Base_to_opt in
  let fopt = (Osrir.Session.result session).fopt in
  let _ = Interp.run ~telemetry:s fopt ~args:entry.default_args in
  let groups = List.map (fun (c : T.counter) -> c.T.group) (T.nonzero_counters ()) in
  List.iter
    (fun g ->
      Alcotest.(check bool) ("group " ^ g ^ " populated") true (List.mem g groups))
    [ "mapper"; "am"; "reconstruct"; "interp" ];
  T.reset_counters ()

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "telemetry",
    [
      t "counter gating and reset" test_counter_gating;
      t "nested spans and self time" test_nested_spans;
      t "spans survive exceptions" test_span_exception_safe;
      t "chrome trace is valid JSON" test_chrome_trace_valid;
      t "counters JSON and table rows" test_counters_json_parses;
      t "remarks: location, filter, laziness" test_remarks;
      t "null-sink differential over corpus" test_null_sink_differential;
      t "pipeline populates counter groups" test_pipeline_populates_counters;
    ] )
