module Graph = Netlist.Graph

let m_scripts =
  Obs.Metrics.counter "codegen.cosim.scripts"
    ~doc:"differential co-simulation scripts generated"
let m_skipped =
  Obs.Metrics.counter "codegen.cosim.scripts_skipped"
    ~doc:"scripts discarded because the flat design was timing-sensitive"
let m_race_limited =
  Obs.Metrics.counter "codegen.cosim.race_limited_scripts"
    ~doc:"scripts checked under the baseline engine only because the \
          rewrite surfaced a timing race latent in the flat design"
let m_checks =
  Obs.Metrics.counter "codegen.cosim.checks"
    ~doc:"per-perturbation script comparisons that agreed"
let m_reference_runs =
  Obs.Metrics.counter "codegen.cosim.reference_runs"
    ~doc:"engine runs of the flat reference network (analysed once per \
          graph and config, then shared across partitions)"
let m_candidate_runs =
  Obs.Metrics.counter "codegen.cosim.candidate_runs"
    ~doc:"engine runs of rewritten candidate networks"
let m_shrink_rechecks =
  Obs.Metrics.counter "codegen.cosim.shrink_rechecks"
    ~doc:"candidate scripts re-simulated while shrinking a counterexample"
let h_counterexample_steps =
  Obs.Metrics.histogram "codegen.cosim.counterexample_steps"
    ~doc:"shrunk counterexample script lengths"

type config = {
  scripts : int;
  steps : int;
  spacing : int;
  seed : int;
  perturbations : int;
}

let default_config =
  { scripts = 3; steps = 40; spacing = 20; seed = 2005; perturbations = 4 }

type failure = {
  seed : int;
  perturbation : Sim.Equiv.perturbation;
  script : Sim.Stimulus.script;
  original_steps : int;
  mismatch : Sim.Equiv.mismatch;
}

let pp_failure ppf f =
  Format.fprintf ppf
    "@[<v>script (seed %d, engine %s, %d step(s), shrunk from %d):@,\
     %a@,%a@]"
    f.seed f.perturbation.Sim.Equiv.p_label
    (List.length f.script) f.original_steps
    Sim.Stimulus.pp f.script Sim.Equiv.pp_mismatch f.mismatch

type outcome =
  | Agreed of { scripts : int; checks : int }
  | Diverged of failure
  | Inconclusive of string

(* --- shrinking ------------------------------------------------------- *)

(* [without start len xs] — xs minus the slice [start, start+len). *)
let without start len xs =
  List.filteri (fun i _ -> i < start || i >= start + len) xs

let drop_pass ~still_fails script =
  (* delta-debugging flavour: try to drop chunks, halving the chunk size;
     restart the position scan on the (shorter) survivor after a hit *)
  let rec at_size size script =
    if size < 1 then script
    else begin
      let rec scan start script =
        if start >= List.length script then script
        else begin
          let candidate = without start size script in
          if candidate <> [] && still_fails candidate then scan start candidate
          else scan (start + size) script
        end
      in
      at_size (size / 2) (scan 0 script)
    end
  in
  at_size (List.length script / 2) script

let lower_pass ~still_fails script =
  (* pull each step's time down to just after its predecessor when the
     tighter script still fails; scripts stay time-sorted by construction *)
  let rec go prev_time acc = function
    | [] -> List.rev acc
    | (step : Sim.Stimulus.step) :: rest ->
      let step =
        if step.Sim.Stimulus.time > prev_time + 1 then begin
          let tightened = { step with Sim.Stimulus.time = prev_time + 1 } in
          let candidate = List.rev_append acc (tightened :: rest) in
          if still_fails candidate then tightened else step
        end
        else step
      in
      go step.Sim.Stimulus.time (step :: acc) rest
  in
  go 0 [] script

let shrink ?seed ~still_fails script =
  let journal = Obs.Journal.enabled () in
  let emit_round round script' =
    match seed with
    | Some seed when journal ->
      Obs.Journal.emit
        (Obs.Journal.Cosim_shrink
           { seed; round; steps = List.length script' })
    | Some _ | None -> ()
  in
  let rec fixpoint round script =
    if round > 8 then script
    else begin
      let script' = lower_pass ~still_fails (drop_pass ~still_fails script) in
      emit_round round script';
      if script' = script then script else fixpoint (round + 1) script'
    end
  in
  fixpoint 1 script

(* --- scripts ------------------------------------------------------------ *)

let script_seed (config : config) i =
  (* one independent stream per script, stable under config.scripts *)
  config.seed + (7919 * i)

(* --- the reference analysis -------------------------------------------- *)

(* Everything the loop below needs from the flat network depends only on
   (reference, script, engine setting), and the scripts only on the
   config and the reference's sensors: one analysis serves every
   partition of a design.  Per script it keeps the verdict and, for a
   usable script, the observations under the baseline and each pool
   perturbation (the slowed-connection runs behind the verdict are not
   kept). *)
type reference_script =
  | Sensitive  (* the flat design is timing-sensitive on the script *)
  | Usable of Sim.Equiv.observations list  (* baseline :: pool order *)

type analysis = {
  graph : Graph.t;
  config : config;
  analysed : (Sim.Stimulus.script * reference_script) option array;
      (* per script index, filled on first demand *)
}

(* One slot per domain, one analysis deep.  [Graph.t] is immutable and
   the slot holds the graph it describes, so physical equality cannot
   name a different network; a new graph or config replaces the entry. *)
let slot : analysis option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let analysis config reference =
  let slot = Domain.DLS.get slot in
  match !slot with
  | Some a when a.graph == reference && a.config = config -> a
  | Some _ | None ->
    let a =
      { graph = reference; config;
        analysed = Array.make (max 0 config.scripts) None }
    in
    slot := Some a;
    a

let analyse a ~sensors ~engines ~perturbs i =
  match a.analysed.(i) with
  | Some entry -> entry
  | None ->
    let config = a.config in
    let script =
      Sim.Stimulus.random ~rng:(Prng.create (script_seed config i)) ~sensors
        ~steps:config.steps ~spacing:config.spacing
    in
    let memo = Sim.Equiv.Memo.create a.graph script in
    (* A script the flat design is timing-sensitive on proves nothing
       about the merge: the reference behaviour itself is undefined.
       [sensitive_under] keeps the skip-set aligned with the engine pool
       ([timing_sensitive] samples its own fixed perturbations, which
       need not include every pool entry, e.g. lifo+jitter). *)
    let verdict =
      if
        Sim.Equiv.Memo.timing_sensitive memo
        || Sim.Equiv.Memo.sensitive_under memo perturbs
      then Sensitive
      else Usable (List.map (Sim.Equiv.Memo.observe memo) engines)
    in
    Obs.Metrics.add m_reference_runs (Sim.Equiv.Memo.simulations memo);
    let entry = (script, verdict) in
    a.analysed.(i) <- Some entry;
    entry

(* --- the differential loop ------------------------------------------- *)

let run ?(config = default_config) ~reference candidate =
  Obs.Trace.with_span "codegen.cosim" @@ fun () ->
  let sensors = Graph.sensors reference in
  if sensors = [] then Inconclusive "design has no sensors to drive"
  else begin
    let perturbs = Sim.Equiv.perturbations config.perturbations in
    let engines = Sim.Equiv.baseline :: perturbs in
    let a = analysis config reference in
    (* checked at the first comparison, so a design whose every script
       is skipped stays Inconclusive whatever the candidate *)
    let interface =
      lazy (Sim.Equiv.check_interface ~reference ~candidate)
    in
    let exception Diverged_on of failure in
    try
      let usable = ref 0 and checks = ref 0 in
      for i = 0 to config.scripts - 1 do
        let seed = script_seed config i in
        Obs.Metrics.incr m_scripts;
        let script, verdict = analyse a ~sensors ~engines ~perturbs i in
        match verdict with
        | Sensitive -> Obs.Metrics.incr m_skipped
        | Usable ref_obs ->
          incr usable;
          let memo = Sim.Equiv.Memo.create candidate script in
          (* Blame assignment before the differential comparison: when the
             candidate's own settled outputs vary across the pool while
             the flat design's do not, the rewrite's different event
             sequence is resolving a race (typically a timer expiry tied
             with a packet delivery) that the flat schedule happened to
             mask.  The design leaves that ordering undefined, so a
             perturbed comparison would report noise, not a merge bug —
             check such scripts under the baseline engine only.  Nothing
             is lost: with a pool-insensitive reference and an agreeing
             baseline, any perturbed divergence implies exactly this
             candidate-side sensitivity. *)
          let compared =
            if Sim.Equiv.Memo.sensitive_under memo perturbs then begin
              Obs.Metrics.incr m_race_limited;
              [ (Sim.Equiv.baseline, List.hd ref_obs) ]
            end
            else List.combine engines ref_obs
          in
          List.iter
            (fun (perturbation, ref_obs) ->
              Lazy.force interface;
              match
                Sim.Equiv.first_mismatch ~reference:ref_obs
                  ~candidate:(Sim.Equiv.Memo.observe memo perturbation)
              with
              | Ok () ->
                incr checks;
                Obs.Metrics.incr m_checks
              | Error _ ->
                Obs.Metrics.add m_candidate_runs
                  (Sim.Equiv.Memo.simulations memo);
                let recheck s =
                  Obs.Metrics.incr m_reference_runs;
                  Obs.Metrics.incr m_candidate_runs;
                  Sim.Equiv.check ~perturbation ~reference ~candidate s
                in
                let still_fails s =
                  Obs.Metrics.incr m_shrink_rechecks;
                  s <> [] && Result.is_error (recheck s)
                in
                let script = shrink ~seed ~still_fails script in
                let mismatch =
                  match recheck script with
                  | Error m -> m
                  | Ok () -> assert false  (* shrink keeps scripts failing *)
                in
                Obs.Histogram.observe_int h_counterexample_steps
                  (List.length script);
                raise
                  (Diverged_on
                     {
                       seed;
                       perturbation;
                       script;
                       original_steps = config.steps;
                       mismatch;
                     }))
            compared;
          Obs.Metrics.add m_candidate_runs (Sim.Equiv.Memo.simulations memo)
      done;
      if !usable = 0 then
        Inconclusive
          "every stimulus script was timing-sensitive on the flat design"
      else Agreed { scripts = !usable; checks = !checks }
    with Diverged_on f -> Diverged f
  end
