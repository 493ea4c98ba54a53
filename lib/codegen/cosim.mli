(** Randomized differential co-simulation — Verify's tier 3.

    For partitions outside the reach of exact proof (members with timers,
    too many input pins, or a product state space past the exploration
    budget), equivalence evidence comes from driving the flat network and
    a rewritten network through {!Sim.Engine} with shared random stimulus
    scripts, replayed under a family of engine perturbations (same-time
    event orders and per-connection latency jitter — see
    {!Sim.Equiv.perturbation}).  Scripts on which the {e flat} design is
    itself timing-sensitive are excluded: such designs have no
    well-defined settled behaviour to preserve (physical eBlocks resolve
    those races nondeterministically), so a differential comparison would
    report noise, not merge bugs.

    The same logic is applied per script on the candidate side.  A design
    can carry a race (typically a timer expiry tied with a packet
    delivery) that the flat network's event schedule happens to resolve
    consistently while the rewritten network's different schedule exposes
    it — the flat-side sensitivity sample then passes even though the
    settled behaviour under the race is undefined.  Such scripts are
    still checked for functional equivalence under the baseline engine,
    but the perturbed comparisons are dropped (counted by
    [codegen.cosim.race_limited_scripts]); with a pool-insensitive
    reference and an agreeing baseline, a perturbed divergence could only
    ever restate that candidate-side sensitivity.

    On a mismatch the failing script is {e shrunk} — steps dropped, then
    step times pulled down, to a local minimum that still fails — before
    it is reported, so a counterexample is a short, replayable scenario
    rather than a 40-step random walk.

    {b Cost.}  Everything computed on the flat side depends only on the
    reference graph, the script and the engine setting, and the scripts
    only on the config and the reference's sensors.  So the reference is
    analysed once per (graph, config) and shared by every partition
    checked against it: per script, its timing verdict plus, for a
    usable script, its observations under the baseline and each pool
    perturbation ({!Sim.Equiv.Memo} simulates each distinct setting
    once).  With the default config that is |E|+9 reference runs per
    script for a timing-insensitive reference (fewer once a sensitivity
    shows), then 5 candidate runs per usable script per partition
    (baseline plus 4 pool perturbations, each feeding both the
    race-limited test and the comparison).  Counted by
    [codegen.cosim.reference_runs] and [codegen.cosim.candidate_runs];
    shrinking adds one of each per re-check.  On the benchmark's traced
    [synth_verify] run (seed 500) this cut [codegen.verify.cosim_ms]
    from 133.6 to 43.9 ms per operation.

    The shared analysis lives in a one-entry, domain-local slot keyed on
    physical equality of the reference graph and structural equality of
    the config.  That is sound because a [Graph.t] is immutable and the
    slot keeps the graph it describes alive, so an equal address always
    names the same network; one entry per domain means no locking, no
    cross-domain sharing and no growth — a different graph or config
    simply replaces it.  The slow-connection runs behind a timing
    verdict are compared and dropped, not kept. *)

module Graph = Netlist.Graph

type config = {
  scripts : int;  (** random stimulus scripts to try *)
  steps : int;  (** sensor flips per script *)
  spacing : int;  (** max ticks between flips (clamped to >= 1) *)
  seed : int;  (** base seed; script [i] derives its own stream from it *)
  perturbations : int;
      (** engine perturbations replayed per script, drawn from
          {!Sim.Equiv.perturbations} (the baseline engine is always
          additionally checked) *)
}

val default_config : config
(** 3 scripts of 40 flips, spacing 20, 4 perturbations, seed 2005. *)

type failure = {
  seed : int;  (** seed of the script that failed *)
  perturbation : Sim.Equiv.perturbation;
      (** engine configuration under which the divergence showed *)
  script : Sim.Stimulus.script;  (** the shrunk failing script *)
  original_steps : int;  (** length of the script before shrinking *)
  mismatch : Sim.Equiv.mismatch;  (** first diverging settled output *)
}

val pp_failure : Format.formatter -> failure -> unit

type outcome =
  | Agreed of { scripts : int; checks : int }
      (** every usable script agreed on every settled output under every
          perturbation; [scripts] counts usable (not timing-sensitive)
          scripts, [checks] the per-perturbation script comparisons *)
  | Diverged of failure
  | Inconclusive of string
      (** no evidence either way, with the reason (no sensors, or every
          script was timing-sensitive on the flat design) *)

val shrink :
  ?seed:int ->
  still_fails:(Sim.Stimulus.script -> bool) ->
  Sim.Stimulus.script ->
  Sim.Stimulus.script
(** Greedy counterexample minimization: repeatedly drop step chunks
    (largest first), then lower each step's time toward its
    predecessor's, keeping any change under which [still_fails] holds;
    iterates to a fixpoint.  [still_fails] must hold for the input
    script; the empty script is never proposed.  When [seed] names the
    originating script's stream, each fixpoint round is journaled as an
    [Obs.Journal.Cosim_shrink] event. *)

val run : ?config:config -> reference:Graph.t -> Graph.t -> outcome
(** [run ~reference candidate] differentially co-simulates the two
    networks ([candidate] is the rewritten one).  Both must expose the
    same sensor and primary-output ids (guaranteed for rewrites produced
    by {!Replace}); raises [Invalid_argument] otherwise.  Deterministic:
    equal inputs and config give an equal outcome. *)
