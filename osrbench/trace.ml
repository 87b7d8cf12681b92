(** In-memory span recorder for the traced run.

    The benchmark wraps each call into a layer's public entry point in a
    span.  A span records its name, start and end time, the span that
    caused it, the operation (activation) it belongs to, and the words
    allocated while it was open (see {!allocated_words}).  Self time and
    self words are a span's own figures minus those of its child spans.  Everything stays in
    memory until {!write} dumps it at the end of the run.

    The disabled recorder ({!null}) costs one branch per call site, so the
    untraced run goes through the same code. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span; [-1] at the root *)
  act : int;  (** index of the operation the span belongs to *)
  t0 : float;  (** seconds since the recorder was created *)
  t1 : float;
  words : float;  (** words allocated while the span was open *)
}

type frame = {
  f_id : int;
  f_name : string;
  f_t0 : float;
  f_w0 : float;
  mutable child_s : float;
  mutable child_w : float;
}

(** Per-name totals.  [b_*] fields only count spans of operations inside
    the fixed batch (operation index below [batch]), so they repeat exactly
    from run to run. *)
type agg = {
  mutable calls : int;
  mutable total_s : float;
  mutable self_s : float;
  mutable b_calls : int;
  mutable b_self_w : float;
}

type t = {
  on : bool;
  origin : float;
  batch : int;
  mutable act : int;
  mutable next_id : int;
  mutable stack : frame list;
  mutable spans : span list;  (** reversed *)
  aggs : (string, agg) Hashtbl.t;
}

let now = Clock.now

(* Words allocated so far on the minor heap: every allocation except blocks
   too large for it (over 256 words).  Unlike the major-heap counters, which
   include promotions and so depend on when collections happen, it repeats
   exactly from run to run. *)
let allocated_words () : float = Gc.minor_words ()

let null : t =
  {
    on = false;
    origin = 0.0;
    batch = 0;
    act = 0;
    next_id = 0;
    stack = [];
    spans = [];
    aggs = Hashtbl.create 1;
  }

let create ~(batch : int) : t =
  {
    on = true;
    origin = now ();
    batch;
    act = 0;
    next_id = 0;
    stack = [];
    spans = [];
    aggs = Hashtbl.create 32;
  }

let set_act (t : t) (i : int) : unit = if t.on then t.act <- i

let agg (t : t) (name : string) : agg =
  match Hashtbl.find_opt t.aggs name with
  | Some a -> a
  | None ->
      let a = { calls = 0; total_s = 0.0; self_s = 0.0; b_calls = 0; b_self_w = 0.0 } in
      Hashtbl.replace t.aggs name a;
      a

let close (t : t) (fr : frame) : unit =
  let t1 = now () in
  let w1 = allocated_words () in
  let dur = t1 -. fr.f_t0 and words = w1 -. fr.f_w0 in
  t.stack <- (match t.stack with _ :: rest -> rest | [] -> []);
  (match t.stack with
  | parent :: _ ->
      parent.child_s <- parent.child_s +. dur;
      parent.child_w <- parent.child_w +. words
  | [] -> ());
  let parent = match t.stack with p :: _ -> p.f_id | [] -> -1 in
  t.spans <-
    {
      id = fr.f_id;
      name = fr.f_name;
      parent;
      act = t.act;
      t0 = fr.f_t0 -. t.origin;
      t1 = t1 -. t.origin;
      words;
    }
    :: t.spans;
  let a = agg t fr.f_name in
  a.calls <- a.calls + 1;
  a.total_s <- a.total_s +. dur;
  a.self_s <- a.self_s +. (dur -. fr.child_s);
  if t.act < t.batch then begin
    a.b_calls <- a.b_calls + 1;
    a.b_self_w <- a.b_self_w +. (words -. fr.child_w)
  end

(** Run [f] inside a span named [name]. *)
let span (t : t) (name : string) (f : unit -> 'a) : 'a =
  if not t.on then f ()
  else begin
    let fr =
      {
        f_id = t.next_id;
        f_name = name;
        f_t0 = now ();
        f_w0 = allocated_words ();
        child_s = 0.0;
        child_w = 0.0;
      }
    in
    t.next_id <- t.next_id + 1;
    t.stack <- fr :: t.stack;
    match f () with
    | v ->
        close t fr;
        v
    | exception e ->
        close t fr;
        raise e
  end

(** Fold span totals measured by another recorder (the [Telemetry] pass
    spans of one [Pass_manager.apply]) into [name]'s aggregate. *)
let add_self (t : t) (name : string) ~(calls : int) ~(total_s : float) ~(self_s : float) : unit =
  if t.on then begin
    let a = agg t name in
    a.calls <- a.calls + calls;
    a.total_s <- a.total_s +. total_s;
    a.self_s <- a.self_s +. self_s
  end

let find (t : t) (name : string) : agg option = Hashtbl.find_opt t.aggs name

(** Total self seconds of every span named [name] (0 when none ran). *)
let self_s (t : t) (name : string) : float =
  match find t name with Some a -> a.self_s | None -> 0.0

(** Self words of [name]'s spans within the fixed batch. *)
let batch_words (t : t) (name : string) : float =
  match find t name with Some a -> a.b_self_w | None -> 0.0

(** Write every span as one JSON array, in completion order. *)
let write (t : t) (path : string) : unit =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun k s ->
      Printf.fprintf oc
        "%s{\"id\":%d,\"name\":%S,\"parent\":%d,\"act\":%d,\"start_s\":%.9f,\"end_s\":%.9f,\"words\":%.0f}\n"
        (if k = 0 then "" else ",")
        s.id s.name s.parent s.act s.t0 s.t1 s.words)
    (List.rev t.spans);
  output_string oc "]\n";
  close_out oc
