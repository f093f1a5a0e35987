(* Line ingestion is [In_channel.input_line]: [mwct serve] reads with it
   directly. These aliases remain for the benchmark sources that still
   call [Ingest]. *)

type t = In_channel.t

let create (ic : In_channel.t) : t = ic
let next_line : t -> string option = In_channel.input_line
