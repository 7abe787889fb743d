(* The rule catalogue. Codes are append-only: once a code has shipped it is
   never reused or renumbered, so CI greps and severity overrides stay
   stable across releases. *)

type pack =
  | Circuit_pack
  | Library_pack
  | Stat_pack
  | Bench_pack
  | Abs_pack
  | Par_pack
  | Flow_pack

type meta = {
  code : string;
  pack : pack;
  severity : Diag.Severity.t;
  title : string;
  protects : string;
  internal : bool;
}

let e = Diag.Severity.Error
let w = Diag.Severity.Warning

let mk ?(internal = false) code pack severity title protects =
  { code; pack; severity; title; protects; internal }

let all =
  [
    mk "CIRC001" Circuit_pack e "combinational cycle"
      "DAG-ness: every traversal (levelize, SSTA, sizing) assumes ascending \
       ids are a topological order";
    mk "CIRC002" Circuit_pack e "multiply-driven net"
      "single-driver nets: arrival/load propagation assumes one driver per net";
    mk "CIRC003" Circuit_pack e "floating net (undefined reference)"
      "every fanin must resolve to a driven net or primary input";
    mk "CIRC004" Circuit_pack w "dangling gate"
      "no dead drivers: a gate with no fanout that is not an output is dead \
       area and skews load/area metrics";
    mk "CIRC005" Circuit_pack w "unreachable logic"
      "every gate should reach a primary output; unreachable logic cannot \
       affect RV_O yet still burns optimizer moves";
    mk "CIRC006" Circuit_pack w "load beyond library drive capability"
      "even the strongest drive for the function would extrapolate its delay \
       table at this load";
    mk "CIRC007" Circuit_pack w "load outside current cell's LUT range"
      "NLDM bilinear interpolation is only calibrated inside the table; \
       clamped extrapolation is a modeling lie";
    mk "CIRC008" Circuit_pack e "no primary outputs"
      "RV_O is a max over outputs — an empty output set makes SSTA undefined";
    mk "CIRC009" Circuit_pack e "no primary inputs"
      "arrival propagation needs at least one source";
    mk ~internal:true "CIRC010" Circuit_pack e "corrupt node table"
      "name-table/arity invariants the public construction API enforces; \
       violations mean memory corruption or an internal bug";
    mk "LIB001" Library_pack e "table non-monotone along load axis"
      "delay/slew must not decrease with load — non-monotone tables break \
       the sizing gain model and indicate corrupt characterization";
    mk "LIB002" Library_pack w "table non-monotone along slew axis"
      "delay/slew should not decrease with input slew; mild violations \
       exist in real libraries, hence Warning";
    mk "LIB003" Library_pack e "negative delay or slew entry"
      "arrival times are sums of non-negative arcs; a negative entry breaks \
       monotone arrival propagation";
    mk "LIB004" Library_pack e "non-positive input cap or area"
      "load computation and area recovery divide and rank by these";
    mk "LIB005" Library_pack w "missing drive strengths"
      "the sizing ladder (next_up/next_down) expects every function at every \
       strength; gaps silently shrink the search space";
    mk "LIB006" Library_pack w "area non-monotone vs drive strength"
      "area recovery assumes downsizing saves area";
    mk "LIB007" Library_pack w "LUT extrapolation observed at runtime"
      "queries outside the characterized table were clamped; results there \
       are extrapolations, not measurements";
    mk "STAT001" Stat_pack e "discrete pdf mass not 1"
      "FULLSSTA's cross-sum/CDF-product algebra assumes normalized pdfs";
    mk "STAT002" Stat_pack e "negative variance, mass, or sigma component"
      "second moments and probability masses are non-negative by definition";
    mk "STAT003" Stat_pack w "sigma/mu outside the sane range"
      "the paper's setup lives at sigma/mu of a few percent; a ratio above \
       0.5 means the normal approximation (and Clark) is meaningless";
    mk "STAT004" Stat_pack e "Clark precondition a > 0 violated"
      "Clark's max formulas divide by a = sqrt(varA + varB - 2*cov); a \
       zero-sigma model degenerates every max";
    mk "STAT005" Stat_pack e "incremental SSTA diverged from the scratch oracle"
      "paranoid mode re-runs the from-scratch engine after every incremental \
       update; any disagreement beyond the decay budget means the dirty-cone \
       bookkeeping dropped a dependency";
    mk "ABS001" Abs_pack e "FULLSSTA mean escapes its certified interval"
      "statcheck's distribution-free enclosures are sound for any engine \
       faithful to the model; a mean outside them is an engine defect, not \
       noise";
    mk "ABS002" Abs_pack e "FULLSSTA variance exceeds its certified bound"
      "Var(max) <= varA + varB and Popoviciu's support bound hold for any \
       independent operands; crossing them means the pdf algebra corrupted \
       second moments";
    mk "ABS003" Abs_pack e "FASSTA moments escape the certified enclosure"
      "the Clark-normal enclosures contain the exact, blended and \
       cutoff-branch evaluations for any operands inside them — both \
       FASSTA engines must land inside at every node";
    mk "ABS004" Abs_pack e "fast-vs-exact deviation exceeds the certified bound"
      "both engine trajectories are enclosed in the same mean interval, so \
       their pointwise gap is bounded by its width (and first-order by the \
       accumulated step budget)";
    mk "ABS005" Abs_pack w "circuit-wide FASSTA error budget above tolerance"
      "when the accumulated cutoff/quadratic-erf budget at the outputs is a \
       large fraction of the arrival itself, FASSTA is operating outside \
       its certified-accuracy regime on this circuit";
    mk "BENCH001" Bench_pack e "bench syntax error"
      "the .bench grammar: NAME = OP(args) and INPUT/OUTPUT declarations";
    mk "BENCH002" Bench_pack e "unsupported gate or arity"
      "technology mapping covers the ISCAS-85 primitive set plus the \
       writer's superset dialect, nothing else";
    mk "PAR000" Par_pack e "unparseable source file"
      "statrace analyzes the project's own sources; a file the compiler \
       frontend rejects cannot be certified race-free";
    mk "PAR001" Par_pack e "unprotected shared ref write"
      "module-global refs written from domain-reachable code need Atomic.t \
       or a mutex — plain stores are lost-update races under parallelism";
    mk "PAR002" Par_pack e "unprotected mutable field or container write"
      "mutable record fields and Hashtbl/Buffer/Queue/Stack are not \
       thread-safe; concurrent mutation corrupts their internal structure";
    mk "PAR003" Par_pack e "unprotected shared array or bytes write"
      "Array.set/Bytes.set on state aliased across a spawn races with \
       concurrent readers and writers of the same slot";
    mk "PAR004" Par_pack w "Domain.DLS key created in domain-reachable code"
      "a DLS key minted per call is a fresh, unshared slot every time — the \
       state silently stops being domain-local-but-persistent";
    mk "PAR005" Par_pack w "split atomic read-modify-write"
      "an Atomic.get/Atomic.set pair on the same location is not atomic as \
       a unit; use fetch_and_add/exchange/compare_and_set";
    mk "PAR006" Par_pack e "spawn closure writes captured mutable local"
      "a mutable allocated outside the thunk but written inside it is \
       shared across domains without any protocol";
    mk "PAR007" Par_pack w "stale statrace suppression"
      "a pragma or allow-file entry that suppresses nothing hides future \
       regressions at that site; the allowlist must stay verified";
    mk "FLOW000" Flow_pack e "unparseable source file"
      "statflow analyzes the project's own sources; a file the compiler \
       frontend rejects cannot be certified allocation-lean or deterministic";
    mk "HOT001" Flow_pack w "construction allocation on a hot path"
      "tuples, records, variant payloads and list conses minted per trial \
       turn the sizer's inner loop into GC pressure — the statkern floor \
       assumes the erf/exp arithmetic dominates, not the minor heap";
    mk "HOT002" Flow_pack w "closure allocation on a hot path"
      "a fun literal built per call captures its environment on the heap; \
       hoist it or take the environment as arguments";
    mk "HOT003" Flow_pack w "stdlib builder allocation on a hot path"
      "Array.make/List.map-family calls allocate their full result per \
       invocation; hot kernels should reuse preallocated scratch instead";
    mk "HOT004" Flow_pack Diag.Severity.Info "boxed-float return heuristic"
      "a function whose tail is float arithmetic boxes its result at every \
       out-of-inline call site; [@inline] avoids it only for callers in the \
       same module, since dune's dev profile compiles with -opaque and no \
       call across modules inlines. The rule skips an [@inline] binding \
       that only its own module calls (heuristic)";
    mk "EXC001" Flow_pack e "raise may skip a resource release"
      "a raise reachable after open_in/Unix.openfile/Mutex.lock in a \
       Fun.protect-free region leaks the handle or deadlocks the lock on \
       the exceptional path";
    mk "EXC002" Flow_pack w "partial stdlib call on a hot path"
      "List.hd/Option.get/Hashtbl.find raise on the empty case; hot paths \
       should use total variants (find_opt, pattern matches) so the sizer \
       cannot die mid-optimization";
    mk "DET001" Flow_pack e "order-sensitive Hashtbl traversal in a result path"
      "Hashtbl.fold/iter order is unspecified and seed-dependent; any \
       result built from it breaks the serial-vs-parallel bit-exactness \
       statserve gates on, unless the result is immediately sorted";
    mk "DET002" Flow_pack e "wall-clock read in a result path"
      "Sys.time/Unix.gettimeofday in result-producing code makes reruns \
       non-reproducible; clocks belong in the obs layer, not in results";
    mk "DET003" Flow_pack e "ambient Random in a result path"
      "the global Random state is shared, unseeded, and (since 5.0) \
       per-domain; results must draw from an explicit seeded generator \
       (Random.State or Numerics.Rng)";
    mk "EXP001" Flow_pack w "exported value no other file names"
      "a val that nothing outside its own module names is dead weight in \
       the interface: code kept only for a test or for later, which every \
       reader and every refactor still pays for; delete it, unexport it, \
       or give the reason it stays";
    mk "FLOW007" Flow_pack w "stale statflow suppression"
      "a pragma or allow-file entry that suppresses nothing hides future \
       regressions at that site; the allowlist must stay verified";
  ]

let find code = List.find_opt (fun m -> m.code = code) all
let mem code = Option.is_some (find code)
