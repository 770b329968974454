(** The two-pass SPT compilation pipeline (§3.2, Fig. 4) and the
    evaluation harness around it.

    Front end → lowering → SPT loop unrolling → SSA + scalar
    optimization → profiling (edge / dependence / value) → pass 1
    (optimal partition per loop candidate) → software value prediction
    on the costly loops, with re-profiling → pass 1 again on the
    rewritten code → pass 2 (global selection, SPT transformation) →
    SSA destruction (with SVP register coalescing) → simulation on the
    synthetic TLS machine, next to the non-SPT O3 baseline. *)

open Spt_ir
open Spt_srclang
open Spt_profile
open Spt_depgraph
open Spt_cost
open Spt_partition
open Spt_transform
open Spt_tlsim
module Iset = Set.Make (Int)
module Obs = Spt_obs

(* observability: phase spans cover every stage below; these counters
   summarize the two passes and the SVP phase (no-ops unless metrics
   are enabled) *)
let m_pass1_candidates = Obs.Metrics.counter "pipeline.pass1_candidates"
let m_pass1_rejects = Obs.Metrics.counter "pipeline.pass1_rejects"
let m_pass2_selected = Obs.Metrics.counter "pipeline.pass2_selected"
let m_pass2_rejects = Obs.Metrics.counter "pipeline.pass2_rejects"
let m_svp_tried = Obs.Metrics.counter "svp.candidates_tried"
let m_svp_applied = Obs.Metrics.counter "svp.applied"
let m_transform_retries = Obs.Metrics.counter "pipeline.transform_retries"
let m_feedback_divergences = Obs.Metrics.counter "feedback.divergences"

type decision = Selected | Rejected of Select.reject_reason

(** Minimum observed−predicted misspeculation-probability excess before
    a feedback override replaces the compile-time estimate. *)
let default_divergence_threshold = 0.1

type loop_record = {
  lr_func : string;
  lr_header : int;
  lr_origin : Ir.loop_origin option;
  lr_body_size : float;  (** dynamic operations per iteration *)
  lr_static_size : int;
  lr_trip : float;
  lr_weight : int;  (** profile weight (dynamic ops inside the loop) *)
  lr_decision : decision;
  lr_cost : float option;  (** optimal misspeculation cost *)
  lr_prefork_size : int option;
  lr_loop_id : int option;  (** id when transformed *)
  lr_svp : bool;
  lr_vcs : (int * int option * float) list;
      (** violation candidates: (iid, store-region sid, effective v(c)) *)
  lr_chosen : int list;  (** candidates moved pre-fork, when selected *)
  lr_depth : int;
      (** speculation depth priced for this loop: the forced
          [Config.depth] if any, else the cost model's pick for
          selected loops; 0 when unpriced (rejected / no partition) *)
}

type eval = {
  config_name : string;
  base : Tls_machine.result;
  spt : Tls_machine.result;
  speedup : float;
  loops : loop_record list;
  outputs_match : bool;
  n_spt_loops : int;
}

(* ------------------------------------------------------------------ *)
(* Shared pipeline steps *)

let front_end src =
  Obs.Trace.span "frontend" (fun () ->
      Lower.lower_program (Typecheck.parse_and_check src))

let to_ssa (prog : Ir.program) =
  Obs.Trace.span "ssa.construct" (fun () ->
      List.iter
        (fun (_, f) ->
          Ssa.construct f;
          Obs.Trace.span "ssa.optimize" (fun () -> Passes.optimize_ssa f))
        prog.Ir.funcs)

let out_of_ssa ?(phi_primed = fun _ -> None) (prog : Ir.program) =
  Obs.Trace.span "ssa.destruct" (fun () ->
      List.iter
        (fun (_, f) ->
          Ssa.destruct ~phi_primed f;
          Passes.optimize_nonssa f)
        prog.Ir.funcs)

(** The non-SPT O3 baseline build (Table 1's reference).  It applies
    the same loop unrolling as the SPT build it is compared against, so
    speedups measure speculation rather than unrolling. *)
let compile_base ?(unroll = Unroll.default_policy) ?(inline = false) src =
  let prog = front_end src in
  if inline then Obs.Trace.span "inline" (fun () -> ignore (Inline.run prog));
  Obs.Trace.span "unroll" (fun () ->
      List.iter (fun (_, f) -> ignore (Unroll.run f unroll)) prog.Ir.funcs);
  to_ssa prog;
  out_of_ssa prog;
  prog

(* run all profilers over [prog] in one probed engine run *)
let profile_all ?(value_targets = []) (prog : Ir.program) ~max_steps =
  Obs.Trace.span "profile" (fun () ->
      let ep = Edge_profile.create () in
      let dp = Dep_profile.create prog in
      let vp = Value_profile.create value_targets in
      let probes =
        Spt_exec.Engine.combine
          [
            Edge_profile.probes ep prog;
            Dep_profile.probes dp prog;
            Value_profile.probes vp prog;
          ]
      in
      let _ = Spt_exec.Engine.profile ~max_steps probes prog in
      (ep, dp, vp))

(* average dynamic cost of one invocation of each function, callees
   included (fixpoint over the call graph) — the speculative thread
   executes callee code too, so loop body sizes must count it *)
let per_invocation_costs ep (prog : Ir.program) =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (name, _) -> Hashtbl.replace tbl name 0.0) prog.Ir.funcs;
  let own_and_calls =
    List.map
      (fun (name, f) ->
        let entries = max 1 (Edge_profile.call_count ep f) in
        let own = ref 0 in
        let calls = ref [] in
        List.iter
          (fun bid ->
            let b = Ir.block f bid in
            let cnt = Edge_profile.block_count ep f bid in
            own := !own + (cnt * Ir.block_size b);
            List.iter
              (fun (i : Ir.instr) ->
                match i.Ir.kind with
                | Ir.Call (_, callee, _) when List.mem_assoc callee prog.Ir.funcs
                  -> calls := (callee, cnt) :: !calls
                | _ -> ())
              b.Ir.instrs)
          (Ir.block_ids f);
        (name, entries, float_of_int !own, !calls))
      prog.Ir.funcs
  in
  for _ = 1 to 1 + List.length prog.Ir.funcs do
    List.iter
      (fun (name, entries, own, calls) ->
        let total =
          List.fold_left
            (fun acc (callee, cnt) ->
              acc
              +. (float_of_int cnt
                 *. Option.value ~default:0.0 (Hashtbl.find_opt tbl callee)))
            own calls
        in
        Hashtbl.replace tbl name (total /. float_of_int entries))
      own_and_calls
  done;
  fun name -> Option.value ~default:0.0 (Hashtbl.find_opt tbl name)

(* dynamic per-iteration size of a loop in elementary operations,
   including the average work of functions called from the body *)
let dynamic_body_size ep ~per_inv (f : Ir.func) (l : Loops.loop) =
  let header_count = Edge_profile.block_count ep f l.Loops.header in
  let weight = Edge_profile.weight_of_loop ep f l in
  if header_count = 0 then
    (* never executed: fall back to the static size *)
    float_of_int
      (Loops.Iset.fold
         (fun bid acc -> acc + Ir.block_size (Ir.block f bid))
         l.Loops.body 0)
  else begin
    let callee_work = ref 0.0 in
    Loops.Iset.iter
      (fun bid ->
        let cnt = Edge_profile.block_count ep f bid in
        List.iter
          (fun (i : Ir.instr) ->
            match i.Ir.kind with
            | Ir.Call (_, callee, _) ->
              callee_work := !callee_work +. (float_of_int cnt *. per_inv callee)
            | _ -> ())
          (Ir.block f bid).Ir.instrs)
      l.Loops.body;
    (float_of_int weight +. !callee_work) /. float_of_int header_count
  end

(* ------------------------------------------------------------------ *)
(* Pass 1: per-loop analysis *)

(* the global region a violation candidate's store writes, when it is a
   store to a named region — the link between a compile-time candidate
   and the runtime's per-region validation-failure counters *)
let vc_region (g : Depgraph.t) vc =
  match (Depgraph.instr g vc).Ir.kind with
  | Ir.Store (Ir.Rsym s, _, _) -> Some s.Ir.sid
  | _ -> None

(* Replace compile-time violation probabilities whose runtime
   counterpart came out higher than predicted by more than
   [divergence].  A validation failure also kills every speculative
   task in flight behind it, so the damage per failure is amplified by
   the average backlog; the observed per-candidate probability scales
   the raw stale rate accordingly.  Overrides only ever *raise* a
   probability: a candidate the partitioner moved pre-fork cannot fail
   validation, so its zero observed rate says nothing about its true
   v(c) — correcting downward from it would oscillate. *)
let apply_feedback ~divergence (graph : Depgraph.t) (ob : Profile_store.obs) =
  if ob.o_iters = 0 then graph
  else begin
    let misspecs = ob.o_violations + ob.o_faults in
    let amp =
      float_of_int (misspecs + ob.o_kills) /. float_of_int (max 1 misspecs)
    in
    (* one validation per *chunk*, so the per-candidate probability is
       stale count over validation attempts (commits + misspecs), not
       over retired iterations — with chunk size 1 the two coincide,
       with larger chunks the iteration denominator would dilute a
       once-per-chunk failure by the chunk size *)
    let attempts = float_of_int (max 1 (ob.o_commits + misspecs)) in
    let rate n = Float.min 1.0 (amp *. (float_of_int n /. attempts)) in
    let other = rate ob.o_stale_other in
    let overrides =
      List.filter_map
        (fun vc ->
          let observed =
            match vc_region graph vc with
            | Some sid ->
              rate
                (Option.value ~default:0
                   (List.assoc_opt sid ob.o_stale_regions))
            | None -> other
          in
          let predicted = Depgraph.violation_prob graph vc in
          if observed -. predicted > divergence then begin
            Obs.Metrics.inc m_feedback_divergences;
            Obs.Log.debug
              "[feedback] %s@bb%d vc %d: predicted %.3f observed %.3f -> \
               override"
              graph.Depgraph.func.Ir.fname graph.Depgraph.loop.Loops.header vc
              predicted observed;
            Some (vc, observed)
          end
          else None)
        (Depgraph.violation_candidates graph)
    in
    if overrides = [] then graph
    else
      {
        graph with
        Depgraph.config =
          {
            graph.Depgraph.config with
            Depgraph.violation_overrides =
              overrides @ graph.Depgraph.config.Depgraph.violation_overrides;
          };
      }
  end

type candidate = {
  c_func : Ir.func;
  c_loop : Loops.loop;
  c_graph : Depgraph.t;
  c_partition : Partition.outcome;
  c_body_size : float;
  c_static_size : int;
  c_trip : float;
  c_weight : int;
}

let analyze (config : Config.t) ~observations ~divergence effects_tbl ep dp
    ~overrides (prog : Ir.program) : candidate list * loop_record list =
  Obs.Trace.span "pass1.analyze" @@ fun () ->
  let sym_ty =
    let tbl = Hashtbl.create 32 in
    List.iter (fun (s : Ir.sym) -> Hashtbl.replace tbl s.Ir.sid s.Ir.selt)
      prog.Ir.globals;
    fun sid -> Hashtbl.find_opt tbl sid
  in
  let per_inv = per_invocation_costs ep prog in
  let candidates = ref [] in
  let records = ref [] in
  List.iter
    (fun (_, f) ->
      List.iter
        (fun (l : Loops.loop) ->
          let body_size = dynamic_body_size ep ~per_inv f l in
          let static_size =
            Loops.Iset.fold
              (fun bid acc -> acc + Ir.block_size (Ir.block f bid))
              l.Loops.body 0
          in
          let trip = Edge_profile.avg_trip_count ep f l in
          let weight = Edge_profile.weight_of_loop ep f l in
          let base_record decision cost prefork =
            {
              lr_func = f.Ir.fname;
              lr_header = l.Loops.header;
              lr_origin = l.Loops.origin;
              lr_body_size = body_size;
              lr_static_size = static_size;
              lr_trip = trip;
              lr_weight = weight;
              lr_decision = decision;
              lr_cost = cost;
              lr_prefork_size = prefork;
              lr_loop_id = None;
              lr_svp = false;
              lr_vcs = [];
              lr_chosen = [];
              lr_depth = 0;
            }
          in
          match
            Select.initial_check config.Config.thresholds
              ~body_size:(int_of_float body_size) ~trip_count:trip
          with
          | Error reason ->
            records := base_record (Rejected reason) None None :: !records
          | Ok () -> (
            let dg_config =
              {
                Depgraph.dep_profile =
                  (if config.Config.use_dep_profile then Some dp else None);
                edge_profile = Some ep;
                static_mem_prob = config.Config.static_mem_prob;
                include_control = config.Config.include_control;
                violation_overrides =
                  Option.value ~default:[]
                    (Hashtbl.find_opt overrides (f.Ir.fname, l.Loops.header));
                alias_model = config.Config.alias_model;
                sym_ty;
              }
            in
            let graph = Depgraph.build ~config:dg_config effects_tbl f l in
            (* adaptive re-partitioning: observed misspeculation rates
               override diverging compile-time estimates before the
               cost graph is built *)
            let graph =
              match
                List.assoc_opt (f.Ir.fname, l.Loops.header) observations
              with
              | Some ob -> apply_feedback ~divergence graph ob
              | None -> graph
            in
            let cm = Cost_model.build graph in
            (* the search only considers partitions the transformation
               can realize: a candidate whose dependence closure reaches
               into a nested loop is not movable (the pre-fork region
               cannot replicate inner loops) *)
            let search_options =
              let inner = Spt_transform_loop.inner_loop_blocks f l in
              if Loops.Iset.is_empty inner then None
              else begin
                let anc = Partition.ancestors graph in
                let movable vc =
                  Partition.Iset.for_all
                    (fun iid ->
                      not (Loops.Iset.mem (Depgraph.block_of graph iid) inner))
                    (anc vc)
                in
                Some
                  {
                    (Partition.default_options
                       ~body_size:(Partition.body_size graph))
                    with
                    Partition.vc_filter = movable;
                  }
              end
            in
            match Partition.search ?options:(Some search_options) cm graph with
            | Partition.Too_many_vcs n ->
              records :=
                base_record (Rejected (Select.Too_many_vcs n)) None None
                :: !records
            | Partition.Found r ->
              candidates :=
                {
                  c_func = f;
                  c_loop = l;
                  c_graph = graph;
                  c_partition = Partition.Found r;
                  c_body_size = body_size;
                  c_static_size = static_size;
                  c_trip = trip;
                  c_weight = weight;
                }
                :: !candidates))
        (Loops.find f))
    prog.Ir.funcs;
  (* cumulative over both analysis rounds when SVP re-analyzes *)
  Obs.Metrics.add m_pass1_candidates (List.length !candidates);
  Obs.Metrics.add m_pass1_rejects (List.length !records);
  (List.rev !candidates, List.rev !records)

(* ------------------------------------------------------------------ *)
(* The full SPT compilation *)

type spt_compilation = {
  program : Ir.program;
  spt_loops : Tls_machine.spt_loop list;
  records : loop_record list;
}

let profile_steps = 100_000_000

(* value-profile targets: carried defs of every loop *)
let svp_targets (prog : Ir.program) =
  List.concat_map
    (fun (name, f) ->
      List.concat_map
        (fun l ->
          List.map
            (fun (_, def_iid) -> { Value_profile.tfunc = name; tiid = def_iid })
            (Svp.candidates f l))
        (Loops.find f))
    prog.Ir.funcs

(* the front half of [compile_spt], up to and including profiling — the
   program state the persistent profile store captures *)
let profile_source ?(config = Config.best) src =
  let prog = front_end src in
  if config.Config.inline then
    Obs.Trace.span "inline" (fun () -> ignore (Inline.run prog));
  Obs.Trace.span "unroll" (fun () ->
      List.iter
        (fun (_, f) -> ignore (Unroll.run f config.Config.unroll))
        prog.Ir.funcs);
  to_ssa prog;
  profile_all ~value_targets:(svp_targets prog) prog ~max_steps:profile_steps

let compile_spt ?profile ?(divergence = default_divergence_threshold)
    (config : Config.t) src : spt_compilation =
  Obs.Trace.span "compile.spt" @@ fun () ->
  (* the profile store guides every profiling pass and the analysis;
     an empty store guides nothing, so it compiles as no store *)
  let seed, observations =
    match profile with
    | Some p when not (Profile_store.is_empty p) ->
      (Profile_store.seed p, Profile_store.observations p)
    | Some _ | None -> ((fun _ _ _ -> ()), [])
  in
  let prog = front_end src in
  if config.Config.inline then
    Obs.Trace.span "inline" (fun () -> ignore (Inline.run prog));
  (* SPT loop unrolling happens before SSA, like ORC's LNO *)
  Obs.Trace.span "unroll" (fun () ->
      List.iter
        (fun (_, f) -> ignore (Unroll.run f config.Config.unroll))
        prog.Ir.funcs);
  to_ssa prog;
  let effects_tbl = Obs.Trace.span "effects" (fun () -> Effects.compute prog) in
  let ep, dp, vp =
    profile_all ~value_targets:(svp_targets prog) prog
      ~max_steps:profile_steps
  in
  (* persistent profiles: merge stored counts into the fresh profilers *)
  seed ep dp vp;
  let no_overrides : (string * int, (int * float) list) Hashtbl.t =
    Hashtbl.create 4
  in
  (* K-deep selection pricing: under a forced depth every violation
     costs its kill cascade, so the selector compares
     [cost * cascade_factor] against the body instead of raw [cost] and
     marginal loops are not speculated K-deep.  Auto depth leaves
     selection alone — {!Cost_model.pick_depth} already balances the
     cascade against the pipelining gain per region. *)
  let sel_cost c =
    match config.Config.depth with
    | Some k -> c *. Cost_model.cascade_factor ~depth:(max 1 k)
    | None -> c
  in
  let candidates, rejected =
    analyze config ~observations ~divergence effects_tbl ep dp
      ~overrides:no_overrides prog
  in
  (* ---- SVP phase: rewrite costly loops with predictable carried
     values, then re-profile and re-analyze (§7.2) ---- *)
  let svp_applied : (string, Svp.applied list) Hashtbl.t = Hashtbl.create 8 in
  let svp_loops : (string * int, unit) Hashtbl.t = Hashtbl.create 8 in
  if config.Config.use_svp then begin
    Obs.Trace.span "svp" @@ fun () ->
    List.iter
      (fun c ->
        match c.c_partition with
        | Partition.Found r
          when Result.is_error
                 (Select.final_check config.Config.thresholds
                    ~body_size:(int_of_float c.c_body_size)
                    ~cost:(sel_cost r.Partition.cost)
                    ~prefork_size:r.Partition.prefork_size) ->
          (* costly loop: try predicting its carried values *)
          List.iter
            (fun (phi_iid, def_iid) ->
              Obs.Metrics.inc m_svp_tried;
              let trivially_movable =
                match (Depgraph.instr c.c_graph def_iid).Ir.kind with
                | Ir.Binop (_, (Ir.Add | Ir.Sub), Ir.Reg _, Ir.Imm_i _)
                | Ir.Binop (_, Ir.Add, Ir.Imm_i _, Ir.Reg _)
                | Ir.Move _ -> true
                | _ -> false
                | exception _ -> true
              in
              if not trivially_movable then
                match
                  Value_profile.predictable vp ~func:c.c_func.Ir.fname
                    ~iid:def_iid
                with
                | Some pred
                  when (* pre-evaluate: would the loop's cost clear the bar
                          if this carried value only misspeculated at the
                          misprediction rate?  Only then is the rewrite
                          worth its overhead ("the mis-prediction cost
                          [must be] acceptably low", §7.2). *)
                       (let trial_cfg =
                          {
                            c.c_graph.Depgraph.config with
                            Depgraph.violation_overrides =
                              (def_iid, 1.0 -. pred.Value_profile.hit_rate)
                              :: c.c_graph.Depgraph.config
                                   .Depgraph.violation_overrides;
                          }
                        in
                        let trial_graph =
                          Depgraph.build ~config:trial_cfg effects_tbl c.c_func
                            c.c_loop
                        in
                        let trial_cm = Cost_model.build trial_graph in
                        match Partition.search trial_cm trial_graph with
                        | Partition.Found tr ->
                          let ok =
                            Result.is_ok
                              (Select.final_check config.Config.thresholds
                                 ~body_size:(int_of_float c.c_body_size)
                                 ~cost:(sel_cost tr.Partition.cost)
                                 ~prefork_size:tr.Partition.prefork_size)
                          in
                          Obs.Log.debug
                            "[svp] %s@bb%d def=%d (%s) stride=%Ld hit=%.2f \
                             trial_cost=%.1f prefork=%d body=%.0f -> %b"
                            c.c_func.Ir.fname c.c_loop.Loops.header def_iid
                            (Format.asprintf "%a" Ir_pretty.pp_kind
                               (Depgraph.instr c.c_graph def_iid).Ir.kind)
                            pred.Value_profile.stride
                            pred.Value_profile.hit_rate tr.Partition.cost
                            tr.Partition.prefork_size c.c_body_size ok;
                          ok
                        | Partition.Too_many_vcs _ -> false) -> (
                  match
                    Svp.apply c.c_func c.c_loop ~phi_iid
                      ~stride:pred.Value_profile.stride
                  with
                  | Some applied ->
                    Obs.Metrics.inc m_svp_applied;
                    Hashtbl.replace svp_applied c.c_func.Ir.fname
                      (applied
                      :: Option.value ~default:[]
                           (Hashtbl.find_opt svp_applied c.c_func.Ir.fname));
                    Hashtbl.replace svp_loops
                      (c.c_func.Ir.fname, c.c_loop.Loops.header)
                      ()
                  | None -> ())
                | Some _ | None -> ())
            (Svp.candidates c.c_func c.c_loop)
        | _ -> ())
      candidates
  end;
  let _ep, dp, candidates, rejected =
    if Hashtbl.length svp_applied = 0 then (ep, dp, candidates, rejected)
    else begin
      (* the rewrites added blocks: re-profile and re-analyze *)
      Obs.Trace.span "svp.reprofile" @@ fun () ->
      let ep, dp, vp = profile_all prog ~max_steps:profile_steps in
      seed ep dp vp;
      (* violation overrides: the SVP'd carried value misspeculates only
         at the profiled misprediction frequency — measured directly as
         the recovery arm's execution probability *)
      let overrides : (string * int, (int * float) list) Hashtbl.t =
        Hashtbl.create 8
      in
      Hashtbl.iter
        (fun fname applied_list ->
          let f = Ir.func_of_program prog fname in
          let loops = Loops.find f in
          (* innermost loop containing the recovery arm *)
          let find_loop (a : Svp.applied) =
            List.filter
              (fun l -> Loops.Iset.mem a.Svp.recover_block l.Loops.body)
              loops
            |> List.sort (fun l1 l2 ->
                   compare
                     (Loops.Iset.cardinal l1.Loops.body)
                     (Loops.Iset.cardinal l2.Loops.body))
            |> function
            | l :: _ -> Some l
            | [] -> None
          in
          List.iter
            (fun (a : Svp.applied) ->
              match find_loop a with
              | Some l ->
                let p_mis =
                  Edge_profile.exec_prob_in_loop ep f l a.Svp.recover_block
                in
                let key = (fname, l.Loops.header) in
                Hashtbl.replace overrides key
                  ((a.Svp.sel_phi_iid, p_mis)
                  :: Option.value ~default:[] (Hashtbl.find_opt overrides key))
              | None -> ())
            applied_list)
        svp_applied;
      let candidates, rejected =
        analyze config ~observations ~divergence effects_tbl ep dp ~overrides
          prog
      in
      (ep, dp, candidates, rejected)
    end
  in
  ignore dp;
  (* ---- pass 2: final selection ---- *)
  let th = config.Config.thresholds in
  let evaluated =
    Obs.Trace.span "pass2.select" @@ fun () ->
    List.map
      (fun c ->
        match c.c_partition with
        | Partition.Too_many_vcs n -> (c, Error (Select.Too_many_vcs n))
        | Partition.Found r -> (
          match
            Select.final_check th ~body_size:(int_of_float c.c_body_size)
              ~cost:(sel_cost r.Partition.cost)
              ~prefork_size:r.Partition.prefork_size
          with
          | Error reason -> (c, Error reason)
          | Ok () -> (c, Ok r)))
      candidates
  in
  (* nesting conflicts: among accepted loops of the same function with
     nested bodies, keep the one with the higher expected benefit *)
  let accepted =
    List.filter_map
      (fun (c, v) -> match v with Ok r -> Some (c, r) | Error _ -> None)
      evaluated
  in
  let benefit_of (c, (r : Partition.result)) =
    Select.benefit ~body_size:(int_of_float c.c_body_size) ~cost:r.Partition.cost
      ~prefork_size:r.Partition.prefork_size ~trip_count:c.c_trip
      ~weight:(float_of_int c.c_weight)
  in
  let conflicts a b =
    let ca, _ = a and cb, _ = b in
    ca.c_func.Ir.fname = cb.c_func.Ir.fname
    && (Loops.Iset.subset ca.c_loop.Loops.body cb.c_loop.Loops.body
       || Loops.Iset.subset cb.c_loop.Loops.body ca.c_loop.Loops.body)
  in
  let sorted = List.sort (fun a b -> compare (benefit_of b) (benefit_of a)) accepted in
  (* ---- SPT transformation ---- *)
  let loop_id_gen = ref 0 in
  let transformed = ref [] in
  let transform_records = ref [] in
  let is_svp c = Hashtbl.mem svp_loops (c.c_func.Ir.fname, c.c_loop.Loops.header) in
  let record_of ?(chosen = []) c (decision : decision) cost prefork loop_id =
    {
      lr_func = c.c_func.Ir.fname;
      lr_header = c.c_loop.Loops.header;
      lr_origin = c.c_loop.Loops.origin;
      lr_body_size = c.c_body_size;
      lr_static_size = c.c_static_size;
      lr_trip = c.c_trip;
      lr_weight = c.c_weight;
      lr_decision = decision;
      lr_cost = cost;
      lr_prefork_size = prefork;
      lr_loop_id = loop_id;
      lr_svp = is_svp c;
      lr_vcs =
        List.map
          (fun vc ->
            (vc, vc_region c.c_graph vc, Depgraph.violation_prob c.c_graph vc))
          (Depgraph.violation_candidates c.c_graph);
      lr_chosen = chosen;
      lr_depth =
        (match config.Config.depth with
        | Some k -> max 1 k
        | None -> (
          match (decision, cost) with
          | Selected, Some cst ->
            Cost_model.pick_depth ~cost:cst ~body_size:c.c_body_size
              ~chunk:(Spt_runtime.Runtime.auto_chunk c.c_body_size)
          | _ -> 0));
    }
  in
  (* process by decreasing benefit; a loop only yields to a conflicting
     loop that actually got *transformed*, so a transform failure does
     not doom the rivals it out-ranked *)
  Obs.Trace.span "transform" (fun () ->
  List.iter
    (fun ((c, (r : Partition.result)) as cand) ->
      if List.exists (fun (c', _, _) -> conflicts (c', r) cand) !transformed then begin
        Obs.Metrics.inc m_pass2_rejects;
        transform_records :=
          record_of c (Rejected Select.Nested_conflict) (Some r.Partition.cost)
            (Some r.Partition.prefork_size) None
          :: !transform_records
      end
      else begin
        (* force the SVP prediction instructions into the pre-fork set *)
        let with_svp prefork =
          List.fold_left
            (fun acc (a : Svp.applied) ->
              if Depgraph.mem c.c_graph a.Svp.predict_iid then
                Iset.add a.Svp.predict_iid acc
              else acc)
            prefork
            (Option.value ~default:[]
               (Hashtbl.find_opt svp_applied c.c_func.Ir.fname))
        in
        let loop_id = !loop_id_gen in
        let attempt prefork =
          Spt_transform_loop.apply c.c_func c.c_graph ~prefork:(with_svp prefork)
            ~loop_id
        in
        let outcome =
          match attempt r.Partition.prefork with
          | Ok info -> Ok (r, info)
          | Error first_rej -> (
            (* the optimal partition is untransformable: re-search with
               the offending candidates excluded and — still respecting
               the selection thresholds — try the runner-up partition *)
            Obs.Metrics.inc m_transform_retries;
            let inner =
              Spt_transform_loop.inner_loop_blocks c.c_func c.c_loop
            in
            let anc = Partition.ancestors c.c_graph in
            let movable vc =
              Iset.for_all
                (fun iid ->
                  not
                    (Loops.Iset.mem (Depgraph.block_of c.c_graph iid) inner))
                (anc vc)
            in
            let opts =
              {
                (Partition.default_options
                   ~body_size:(Partition.body_size c.c_graph))
                with
                Partition.vc_filter = movable;
              }
            in
            let cm = Cost_model.build c.c_graph in
            match Partition.search ~options:(Some opts) cm c.c_graph with
            | Partition.Found r2
              when Result.is_ok
                     (Select.final_check th
                        ~body_size:(int_of_float c.c_body_size)
                        ~cost:(sel_cost r2.Partition.cost)
                        ~prefork_size:r2.Partition.prefork_size) -> (
              match attempt r2.Partition.prefork with
              | Ok info -> Ok (r2, info)
              | Error rej -> Error rej)
            | Partition.Found r2 ->
              Obs.Log.debug
                "[retry] %s@bb%d filtered partition fails selection: \
                 cost=%.1f prefork=%d body=%.0f"
                c.c_func.Ir.fname c.c_loop.Loops.header r2.Partition.cost
                r2.Partition.prefork_size c.c_body_size;
              Error first_rej
            | Partition.Too_many_vcs _ -> Error first_rej)
        in
        match outcome with
        | Ok (r_used, info) ->
          incr loop_id_gen;
          Obs.Metrics.inc m_pass2_selected;
          transformed := (c, r_used, info) :: !transformed;
          transform_records :=
            record_of ~chosen:(Partition.chosen r_used) c Selected
              (Some r_used.Partition.cost)
              (Some r_used.Partition.prefork_size) (Some loop_id)
            :: !transform_records
        | Error rej ->
          Obs.Metrics.inc m_pass2_rejects;
          transform_records :=
            record_of c
              (Rejected
                 (Select.Not_transformable
                    (Spt_transform_loop.string_of_reject rej)))
              (Some r.Partition.cost)
              (Some r.Partition.prefork_size) None
            :: !transform_records
      end)
    sorted);
  (* records for loops that failed final selection *)
  Obs.Metrics.add m_pass2_rejects
    (List.length
       (List.filter (fun (_, v) -> Result.is_error v) evaluated));
  let final_rejects =
    List.filter_map
      (fun (c, v) ->
        match v with
        | Error reason ->
          let cost, prefork =
            match c.c_partition with
            | Partition.Found r ->
              (Some r.Partition.cost, Some r.Partition.prefork_size)
            | Partition.Too_many_vcs _ -> (None, None)
          in
          Some (record_of c (Rejected reason) cost prefork None)
        | Ok _ -> None)
      evaluated
  in
  (* ---- out of SSA and final cleanup, coalescing both the SVP
     prediction registers and the carried registers whose definitions
     moved pre-fork (so the carriers are written before the fork) ---- *)
  let transform_coalesce : (string, (int * Ir.var) list) Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter
    (fun (c, _, (info : Spt_transform_loop.info)) ->
      let fname = c.c_func.Ir.fname in
      Hashtbl.replace transform_coalesce fname
        (info.Spt_transform_loop.coalesce
        @ Option.value ~default:[] (Hashtbl.find_opt transform_coalesce fname)))
    !transformed;
  let phi_primed_for fname =
    let svp_fn =
      match Hashtbl.find_opt svp_applied fname with
      | Some applied -> Svp.phi_primed applied
      | None -> fun _ -> None
    in
    let pairs = Option.value ~default:[] (Hashtbl.find_opt transform_coalesce fname) in
    fun vid ->
      match svp_fn vid with
      | Some v -> Some v
      | None -> List.assoc_opt vid pairs
  in
  Obs.Trace.span "ssa.destruct" (fun () ->
      List.iter
        (fun (name, f) ->
          Ssa.destruct ~phi_primed:(phi_primed_for name) f;
          Passes.optimize_nonssa f)
        prog.Ir.funcs);
  (* ---- register the transformed loops with the simulator ---- *)
  let spt_loops =
    List.filter_map
      (fun (c, _, (info : Spt_transform_loop.info)) ->
        let f = c.c_func in
        let loops = Loops.find f in
        match
          List.find_opt (fun l -> l.Loops.header = info.Spt_transform_loop.header) loops
        with
        | Some l ->
          Some
            {
              Tls_machine.sl_id = info.Spt_transform_loop.loop_id;
              sl_fname = f.Ir.fname;
              sl_header = l.Loops.header;
              sl_body =
                Loops.Iset.fold
                  (fun b acc -> Tls_machine.Iset.add b acc)
                  l.Loops.body Tls_machine.Iset.empty;
            }
        | None -> None)
      !transformed
  in
  {
    program = prog;
    spt_loops;
    records = rejected @ final_rejects @ List.rev !transform_records;
  }

(* ------------------------------------------------------------------ *)
(* Evaluation: SPT build vs the non-SPT baseline *)

(* [spt] is forced once the baseline is built and simulated, so a
   cold [evaluate] traces compile.base, simulate.base, the SPT compile
   and simulate.spt in that order *)
let simulate_against_base ~config src (spt : spt_compilation Lazy.t) : eval =
  let base_prog =
    Obs.Trace.span "compile.base" (fun () ->
        compile_base ~unroll:config.Config.unroll ~inline:config.Config.inline
          src)
  in
  let base =
    Obs.Trace.span "simulate.base" (fun () ->
        Tls_machine.run ~config:config.Config.sim base_prog)
  in
  let spt = Lazy.force spt in
  let spt_res =
    Obs.Trace.span "simulate.spt" (fun () ->
        Tls_machine.run ~config:config.Config.sim ~spt_loops:spt.spt_loops
          spt.program)
  in
  Obs.Log.info "evaluate[%s]: base=%.0f cycles, spt=%.0f cycles, %d SPT loops"
    config.Config.name base.Tls_machine.cycles spt_res.Tls_machine.cycles
    (List.length spt.spt_loops);
  {
    config_name = config.Config.name;
    base;
    spt = spt_res;
    speedup =
      (if spt_res.Tls_machine.cycles > 0.0 then
         base.Tls_machine.cycles /. spt_res.Tls_machine.cycles
       else 1.0);
    loops = spt.records;
    outputs_match = String.equal base.Tls_machine.output spt_res.Tls_machine.output;
    n_spt_loops = List.length spt.spt_loops;
  }

let evaluate ?(config = Config.best) ?profile ?divergence src =
  simulate_against_base ~config src
    (lazy (compile_spt ?profile ?divergence config src))

let simulate ?(config = Config.best) src spt =
  simulate_against_base ~config src (Lazy.from_val spt)

(* ------------------------------------------------------------------ *)
(* Parallel execution on the speculative runtime *)

type parallel_run = {
  pr_jobs : int;
  pr_chunk : int option;  (** forced chunk size ([None] = auto) *)
  pr_depth : int option;  (** forced speculation depth ([None] = auto) *)
  pr_n_loops : int;  (** SPT loops handed to the runtime *)
  pr_seq_wall : float;  (** sequential run's wall time, seconds *)
  pr_measured_speedup : float;  (** sequential wall / parallel wall *)
  pr_runtime : Spt_runtime.Runtime.result;
  pr_spt : spt_compilation;  (** the compilation that was executed *)
}

let loop_specs spt =
  List.map
    (fun (sl : Tls_machine.spt_loop) ->
      let record =
        List.find_opt
          (fun (r : loop_record) ->
            String.equal r.lr_func sl.Tls_machine.sl_fname
            && r.lr_header = sl.Tls_machine.sl_header)
          spt.records
      in
      {
        Spt_runtime.Runtime.ls_id = sl.Tls_machine.sl_id;
        ls_fname = sl.Tls_machine.sl_fname;
        ls_header = sl.Tls_machine.sl_header;
        (* the cost model's per-iteration estimate sizes the chunk… *)
        ls_iter_ops =
          (match record with Some r -> r.lr_body_size | None -> 0.0);
        (* …and its priced speculation depth bounds the epoch window *)
        ls_depth = (match record with Some r -> r.lr_depth | None -> 0);
      })
    spt.spt_loops

let run_parallel ?(config = Config.best) ?runtime_config ?profile ?divergence
    src : parallel_run =
  let spt = compile_spt ?profile ?divergence config src in
  let loops = loop_specs spt in
  let rcfg =
    let base =
      match runtime_config with
      | Some c -> c
      | None -> Spt_runtime.Runtime.default_config ()
    in
    (* a depth the compile config forces is the runtime's too, unless
       the runtime config forces its own *)
    match (base.Spt_runtime.Runtime.depth, config.Config.depth) with
    | None, Some k -> { base with Spt_runtime.Runtime.depth = Some (max 1 k) }
    | _ -> base
  in
  (* measured-speedup baseline: the same program run sequentially
     (markers are no-ops), on the same engine, on this machine, right
     now *)
  let t0 = Unix.gettimeofday () in
  let _seq = Obs.Trace.span "run.sequential" (fun () ->
      Spt_exec.Engine.run ~max_steps:rcfg.Spt_runtime.Runtime.max_steps
        spt.program) in
  let pr_seq_wall = Unix.gettimeofday () -. t0 in
  let r =
    Obs.Trace.span "run.parallel" (fun () ->
        Spt_runtime.Runtime.run ~config:rcfg ~loops spt.program)
  in
  (* the runtime's workers have joined; merge their lanes into the
     pipeline trace so chrome://tracing shows the parallel execution *)
  (match rcfg.Spt_runtime.Runtime.timeline with
  | Some t when Obs.Trace.enabled () ->
    Obs.Trace.append_events
      (Obs.Timeline.to_trace_events ~epoch:(Obs.Trace.epoch_s ()) t)
  | _ -> ());
  Obs.Log.info
    "run_parallel: %d SPT loops, jobs=%d, seq %.3fs vs par %.3fs, oracle %s"
    (List.length loops) rcfg.Spt_runtime.Runtime.jobs pr_seq_wall
    r.Spt_runtime.Runtime.wall_time
    (match r.Spt_runtime.Runtime.oracle with
    | `Match -> "match"
    | `Mismatch m -> "MISMATCH: " ^ m
    | `Skipped -> "skipped");
  {
    pr_jobs = rcfg.Spt_runtime.Runtime.jobs;
    pr_chunk = rcfg.Spt_runtime.Runtime.chunk;
    pr_depth = rcfg.Spt_runtime.Runtime.depth;
    pr_n_loops = List.length loops;
    pr_seq_wall;
    pr_measured_speedup =
      (if r.Spt_runtime.Runtime.wall_time > 0.0 then
         pr_seq_wall /. r.Spt_runtime.Runtime.wall_time
       else 1.0);
    pr_runtime = r;
    pr_spt = spt;
  }
