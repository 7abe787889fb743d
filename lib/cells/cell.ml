(* A sized standard cell: one logic function at one drive strength, with
   NLDM-style lookup tables for delay and output slew.

   Units: time in ps, capacitance in fF, area in µm². *)

type t = {
  name : string; (* e.g. "NAND2_X4" *)
  fn : Fn.t;
  drive_index : int; (* position in the library's strength ladder *)
  strength : float; (* relative drive strength (1.0 = minimum size) *)
  area : float;
  input_cap : float; (* per input pin *)
  delay : Numerics.Lut.t; (* rows: input slew, cols: load cap -> delay *)
  output_slew : Numerics.Lut.t; (* same axes -> output transition *)
}

let name t = t.name
let fn t = t.fn
let arity t = Fn.arity t.fn
let drive_index t = t.drive_index
let strength t = t.strength
let area t = t.area
let input_cap t = t.input_cap

(* statobs: every timing-model lookup funnels through these two wrappers,
   so the pair of counters is the total LUT traffic of a run. *)
let c_delay_queries = Obs.Counters.make "lut.delay_queries"
let c_slew_queries = Obs.Counters.make "lut.slew_queries"

let delay t ~slew ~load =
  Obs.Counters.bump c_delay_queries;
  Numerics.Lut.query t.delay ~row:slew ~col:load

let slew t ~slew ~load =
  Obs.Counters.bump c_slew_queries;
  Numerics.Lut.query t.output_slew ~row:slew ~col:load

let equal a b = String.equal a.name b.name

let pp ppf t =
  Fmt.pf ppf "%s(area=%.2f, cin=%.2f)" t.name t.area t.input_cap
