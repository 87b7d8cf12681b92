(** Local aliases for the MiniIR modules used throughout the passes. *)

module Ir = Miniir.Ir
module Dom = Miniir.Dom
module Func_index = Miniir.Func_index
module Loops = Miniir.Loops
module Verifier = Miniir.Verifier
