(** Imperative builder for MiniIR functions, in the style of LLVM's
    IRBuilder: create a function, position at a block, append instructions.
    Used by the benchmark corpus and by tests. *)

type t = {
  func : Ir.func;
  mutable cursor : Ir.block option;  (** block receiving appended instructions *)
}

let create ~(name : string) ~(params : string list) : t =
  let func =
    {
      Ir.fname = name;
      params;
      blocks = [];
      next_id = 0;
      next_reg = 0;
    }
  in
  { func; cursor = None }

(** Add a new empty block (terminated by [Unreachable] until sealed) and
    return its label.  The first block added is the entry. *)
let add_block (b : t) (label : string) : string =
  if Ir.find_block b.func label <> None then
    invalid_arg (Printf.sprintf "Builder.add_block: duplicate label %S" label);
  let blk =
    {
      Ir.label;
      phis = [];
      body = [];
      term = Ir.Unreachable;
      term_id = Ir.fresh_id b.func;
    }
  in
  b.func.blocks <- b.func.blocks @ [ blk ];
  label

(** Point the builder at an existing block. *)
let position_at (b : t) (label : string) : unit = b.cursor <- Some (Ir.block_exn b.func label)

let add_block_at (b : t) (label : string) : unit =
  ignore (add_block b label);
  position_at b label

let current (b : t) : Ir.block =
  match b.cursor with
  | Some blk -> blk
  | None -> invalid_arg "Builder: no current block (call position_at first)"

(* Append an instruction computing [rhs] into a fresh or given register. *)
let emit ?reg ?(hint = "t") (b : t) (rhs : Ir.rhs) : Ir.value =
  let blk = current b in
  let r = match reg with Some r -> r | None -> Ir.fresh_reg ~hint b.func in
  let i = { Ir.id = Ir.fresh_id b.func; result = Some r; rhs } in
  (match rhs with
  | Ir.Phi _ -> blk.phis <- blk.phis @ [ i ]
  | _ -> blk.body <- blk.body @ [ i ]);
  Ir.Reg r

(* Append a void instruction (store, void call). *)
let emit_void (b : t) (rhs : Ir.rhs) : unit =
  let blk = current b in
  let i = { Ir.id = Ir.fresh_id b.func; result = None; rhs } in
  blk.body <- blk.body @ [ i ]

let binop ?reg ?hint (b : t) (op : Ir.binop) (x : Ir.value) (y : Ir.value) : Ir.value =
  emit ?reg ?hint b (Ir.Binop (op, x, y))

let add ?reg ?hint b x y = binop ?reg ?hint b Ir.Add x y
let mul ?reg ?hint b x y = binop ?reg ?hint b Ir.Mul x y
let band ?reg ?hint b x y = binop ?reg ?hint b Ir.And x y
let bor ?reg ?hint b x y = binop ?reg ?hint b Ir.Or x y
let bxor ?reg ?hint b x y = binop ?reg ?hint b Ir.Xor x y

let icmp ?reg ?hint (b : t) (op : Ir.icmp) (x : Ir.value) (y : Ir.value) : Ir.value =
  emit ?reg ?hint b (Ir.Icmp (op, x, y))

let select ?reg ?hint b c x y : Ir.value = emit ?reg ?hint b (Ir.Select (c, x, y))
let alloca ?reg ?(hint = "slot") ?(size = 1) (b : t) : Ir.value =
  emit ?reg ~hint b (Ir.Alloca size)
let load ?reg ?hint (b : t) (addr : Ir.value) : Ir.value = emit ?reg ?hint b (Ir.Load addr)
let store (b : t) (v : Ir.value) (addr : Ir.value) : unit = emit_void b (Ir.Store (v, addr))
let call ?reg ?hint (b : t) (name : string) (args : Ir.value list) : Ir.value =
  emit ?reg ?hint b (Ir.Call (name, args))
let call_void (b : t) (name : string) (args : Ir.value list) : unit =
  emit_void b (Ir.Call (name, args))

let phi ?reg ?(hint = "phi") (b : t) (incoming : (string * Ir.value) list) : Ir.value =
  emit ?reg ~hint b (Ir.Phi incoming)

(* Terminators seal the current block. *)
let br (b : t) (label : string) : unit = (current b).term <- Ir.Br label

let cbr (b : t) (cond : Ir.value) (then_ : string) (else_ : string) : unit =
  (current b).term <- Ir.Cbr (cond, then_, else_)

let ret (b : t) (v : Ir.value) : unit = (current b).term <- Ir.Ret v
let unreachable (b : t) : unit = (current b).term <- Ir.Unreachable

(** Finish: return the function (no structural checks; run {!Verifier}). *)
let finish (b : t) : Ir.func = b.func

let param (b : t) (name : string) : Ir.value =
  if List.mem name b.func.params then Ir.Reg name
  else invalid_arg (Printf.sprintf "Builder.param: %S is not a parameter" name)
