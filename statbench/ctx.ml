(* One benchmark invocation: which workload, its seed, how long to
   measure, whether this is the traced run, and where scratch files go. *)

type t = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  statsize : string;  (** the statsize binary the serve workload spawns *)
  run_dir : string;  (** scratch directory inside the checkout *)
}

let path t file = Filename.concat t.run_dir file

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let file = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text file In_channel.input_lines with
  | lines ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> Option.fold ~none:acc ~some:(fun k -> float_of_int k /. 1024.0) (int_of_string_opt kb)
              | [] -> acc)
          | _ -> acc)
        0.0 lines
  | exception Sys_error _ -> 0.0
