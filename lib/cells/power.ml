(* Cell power model.

   The paper motivates variance reduction partly through power: circuits on
   the fast side of the delay distribution "exhibit undesirable variance in
   power consumption due to both dynamic and leakage power variations"
   (§2.2, Fig. 1 discussion). This module supplies the per-cell numbers the
   power-variability experiment needs:

   - dynamic energy per output toggle: E = ½·C·V² with C the cell's input
     load as seen by its drivers plus its own drive parasitics — derived
     from the cell's input cap and strength at a nominal supply;
   - leakage: sub-threshold leakage scales with total device width (drive
     strength) and is exponentially sensitive to the process corner — the
     fast-die/leaky-die correlation that couples power variance to delay
     variance. *)

type params = {
  supply_v : float; (* volts *)
  leakage_per_strength_nw : float; (* nW per unit drive at nominal corner *)
  leakage_process_lambda : float;
      (* leakage multiplier = exp(lambda · z) for process deviation z:
         fast dies (negative delay z) leak more *)
}

let default_params =
  { supply_v = 1.0; leakage_per_strength_nw = 2.0; leakage_process_lambda = 0.8 }

(* Switched capacitance per output transition (fF): the cell's own output
   parasitics scale with strength; a representative self-load factor stands
   in for layout data. *)
let switched_cap cell = Cell.input_cap cell +. (0.8 *. Cell.strength cell)

(* Dynamic energy per toggle, femtojoules: E = ½ C V². *)
let dynamic_energy_fj ?(params = default_params) cell =
  0.5 *. switched_cap cell *. params.supply_v *. params.supply_v

(* Nominal leakage, nanowatts. *)
let leakage_nw ?(params = default_params) cell =
  params.leakage_per_strength_nw *. Cell.strength cell
  *. (0.6 +. (0.4 *. Fn.base_area (Cell.fn cell)))
