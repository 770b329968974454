(** Differential oracle — see oracle.mli. *)

open Spt_ir
module Interp = Spt_interp.Interp
module Layout = Spt_interp.Layout
module Runtime = Spt_runtime.Runtime
module Pipeline = Spt_driver.Pipeline
module Config = Spt_driver.Config
module Select = Spt_transform.Select
module Tloop = Spt_transform.Spt_transform_loop
module Json = Spt_obs.Json

module Engine = Spt_exec.Engine

type point =
  | P_par of int
  | P_engine of [ `Tree | `Bytecode ]
  | P_depth of int
  | P_cache
  | P_feedback
  | P_inject of string

let engine_axis = [ P_engine `Tree; P_engine `Bytecode ]

let depth_axis = [ P_depth 1; P_depth 2; P_depth 4 ]

let default_matrix =
  [ P_par 1; P_par 2; P_par 4 ]
  @ engine_axis @ depth_axis
  @ [ P_cache; P_feedback ]

let known_faults = [ "drop-prefork-stmt" ]

let string_of_point = function
  | P_par j -> Printf.sprintf "par:%d" j
  | P_engine `Tree -> "engine:tree:seq"
  | P_engine `Bytecode -> "engine:bytecode:seq"
  | P_depth k -> Printf.sprintf "depth:%d" k
  | P_cache -> "cache"
  | P_feedback -> "feedback"
  | P_inject f -> "inject:" ^ f

let matrix_of_string spec =
  let parts =
    List.filter
      (fun s -> s <> "")
      (List.map String.trim (String.split_on_char ',' spec))
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | "seq" :: rest -> go acc rest (* the implicit basis *)
    | "par" :: rest -> go (P_par 4 :: P_par 2 :: P_par 1 :: acc) rest
    | "engine" :: rest -> go (List.rev_append engine_axis acc) rest
    | "depth" :: rest -> go (List.rev_append depth_axis acc) rest
    | "cache" :: rest -> go (P_cache :: acc) rest
    | "feedback" :: rest -> go (P_feedback :: acc) rest
    | p :: _ -> Error (Printf.sprintf "unknown matrix point %S" p)
  in
  go [] parts

type divergence = { d_point : string; d_kind : string; d_detail : string }

(* Generated programs retire a few thousand dynamic instructions; this
   is ~500x headroom.  The tight budget is what keeps shrinking usable:
   a mutated-into-infinite loop dies here in milliseconds instead of
   burning the interpreter's 200M-step default for minutes. *)
let default_max_steps = 2_000_000

type verdict = {
  v_status : [ `Ok | `Divergent | `Skipped of string ];
  v_divergences : divergence list;
  v_spt_loops : int;
  v_misspecs : int;
  v_fault_fired : bool;
}

let divergence_json d =
  Json.Obj
    [
      ("point", Json.Str d.d_point);
      ("kind", Json.Str d.d_kind);
      ("detail", Json.Str d.d_detail);
    ]

(* ------------------------------------------------------------------ *)
(* Observables of one executed point *)

type outcome = {
  oc_output : string;
  oc_return : string;
  oc_digest : string;
  oc_error : string option;  (** when set, the other fields are dummies *)
}

let render_ret = function
  | None -> "void"
  | Some (Spt_ir.Eval.Vi n) -> Int64.to_string n
  | Some (Spt_ir.Eval.Vf f) -> string_of_float f

(* the ground truth: sequential interpretation of the untransformed
   lowered program, with the final memory image digested the same way
   the speculative runtime digests its own *)
let reference ~max_steps src =
  let prog = Pipeline.front_end src in
  let store = Interp.new_store (Layout.build prog.Ir.globals) prog in
  let r = Interp.run ~max_steps ~store prog in
  {
    oc_output = r.Interp.output;
    oc_return = render_ret r.Interp.return_value;
    oc_digest = Runtime.heap_digest store;
    oc_error = None;
  }

let outcome_of_runtime (r : Runtime.result) =
  {
    oc_output = r.Runtime.output;
    oc_return = render_ret r.Runtime.return_value;
    oc_digest = Lazy.force r.Runtime.heap_digest;
    oc_error = None;
  }

(* compare an executed point against the reference *)
let diff_outcomes ~point ~reference:r o =
  let d kind detail = { d_point = point; d_kind = kind; d_detail = detail } in
  match (r.oc_error, o.oc_error) with
  | None, Some e -> [ d "error" e ]
  | None, None ->
    List.concat
      [
        (if String.equal r.oc_output o.oc_output then []
         else
           [
             d "output"
               (Printf.sprintf "%d bytes vs %d sequential"
                  (String.length o.oc_output)
                  (String.length r.oc_output));
           ]);
        (if String.equal r.oc_return o.oc_return then []
         else
           [ d "return" (Printf.sprintf "%s vs %s sequential" o.oc_return r.oc_return) ]);
        (if String.equal r.oc_digest o.oc_digest then []
         else [ d "heap" "final memory image differs from sequential" ]);
      ]
  | Some _, _ -> []  (* unreachable: a failing reference skips the case *)

(* ------------------------------------------------------------------ *)
(* Report invariants of a compilation *)

let invariant_divergences ~point (config : Config.t) (spt : Pipeline.spt_compilation) =
  let d detail = { d_point = point; d_kind = "invariant"; d_detail = detail } in
  List.concat_map
    (fun (r : Pipeline.loop_record) ->
      let where =
        Printf.sprintf "%s@bb%d" r.Pipeline.lr_func r.Pipeline.lr_header
      in
      List.concat
        [
          (match r.Pipeline.lr_cost with
          | Some c when Float.is_nan c || c < 0.0 ->
            [ d (Printf.sprintf "%s: predicted cost %f" where c) ]
          | _ -> []);
          (match r.Pipeline.lr_prefork_size with
          | Some p when p < 0 ->
            [ d (Printf.sprintf "%s: pre-fork size %d" where p) ]
          | _ -> []);
          (if r.Pipeline.lr_body_size < 0.0 || r.Pipeline.lr_trip < 0.0 then
             [ d (Printf.sprintf "%s: negative size/trip" where) ]
           else []);
          (match (r.Pipeline.lr_decision, r.Pipeline.lr_cost, r.Pipeline.lr_prefork_size)
           with
          | Pipeline.Selected, Some cost, Some prefork_size -> (
            match
              Select.final_check config.Config.thresholds
                ~body_size:(int_of_float r.Pipeline.lr_body_size)
                ~cost ~prefork_size
            with
            | Ok () -> []
            | Error reason ->
              [
                d
                  (Printf.sprintf "%s: selected but fails final check (%s)"
                     where
                     (Select.string_of_reason reason));
              ])
          | Pipeline.Selected, _, _ ->
            [ d (Printf.sprintf "%s: selected without cost/partition" where) ]
          | Pipeline.Rejected _, _, _ -> []);
        ])
    spt.Pipeline.records

(* ------------------------------------------------------------------ *)
(* Matrix points *)

let run_on_runtime ?depth ~max_steps ~jobs (spt : Pipeline.spt_compilation) =
  let c = Runtime.default_config ~jobs () in
  let config =
    {
      c with
      Runtime.max_steps;
      spec_fuel = min c.Runtime.spec_fuel max_steps;
      depth;
    }
  in
  Runtime.run ~config ~loops:(Pipeline.loop_specs spt) spt.Pipeline.program

(* the speculative runtime at [jobs] domains.  A forced [depth] keeps
   exactly that many epochs in flight, exercising the ordered-commit
   queue, the kill cascade and the runtime value predictor at that
   depth, against the same sequential reference as every point *)
let runtime_point ?depth ~max_steps ~reference:ref_oc ~spt ~jobs point =
  let point = string_of_point point in
  match run_on_runtime ?depth ~max_steps ~jobs spt with
  | exception Interp.Runtime_error m ->
    ([ { d_point = point; d_kind = "error"; d_detail = m } ], 0)
  | r ->
    let misspecs =
      List.fold_left
        (fun acc (_, (s : Runtime.loop_stats)) ->
          acc + s.Runtime.violations + s.Runtime.faults + s.Runtime.kills)
        0 r.Runtime.stats
    in
    let internal =
      match r.Runtime.oracle with
      | `Match | `Skipped -> []
      | `Mismatch m ->
        [ { d_point = point; d_kind = "runtime-oracle"; d_detail = m } ]
    in
    ( diff_outcomes ~point ~reference:ref_oc (outcome_of_runtime r) @ internal,
      misspecs )

(* the *transformed* program executed sequentially on the tree
   interpreter or the bytecode engine: markers are no-ops without a
   handler, so this checks both that the SPT transformation preserved
   sequential semantics and that the two agree
   instruction-for-instruction on real (fuzzed) code *)
let engine_seq_outcome ~max_steps kind (spt : Pipeline.spt_compilation) =
  let prog = spt.Pipeline.program in
  let store, ret =
    match kind with
    | `Tree ->
      let store = Interp.new_store (Layout.build prog.Ir.globals) prog in
      (store, (Interp.run ~max_steps ~store prog).Interp.return_value)
    | `Bytecode ->
      let eng = Engine.compile prog in
      let store = Interp.new_store (Engine.layout eng) prog in
      let m = Engine.make ~max_steps ~memio:(Interp.store_memio store) eng in
      (store, Engine.call m (Ir.func_of_program prog "main") [] [])
  in
  {
    oc_output = Buffer.contents store.Interp.sout;
    oc_return = render_ret ret;
    oc_digest = Runtime.heap_digest store;
    oc_error = None;
  }

let engine_point ~max_steps ~reference:ref_oc ~spt kind =
  let point = string_of_point (P_engine kind) in
  match engine_seq_outcome ~max_steps kind spt with
  | exception e ->
    [ { d_point = point; d_kind = "error"; d_detail = Printexc.to_string e } ]
  | o -> diff_outcomes ~point ~reference:ref_oc o

(* cold/warm replay through a throwaway on-disk cache *)
let tmp_counter = ref 0

let with_tmp_dir f =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "spt-fuzz-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect
    ~finally:(fun () -> try rm dir with Sys_error _ -> ())
    (fun () -> f dir)

let cache_point ~config src =
  let module C = Spt_service.Cached in
  let point = string_of_point P_cache in
  let d kind detail = { d_point = point; d_kind = kind; d_detail = detail } in
  try
    with_tmp_dir (fun dir ->
        let cache = Spt_service.Artifact_cache.create ~dir () in
        let compile src = C.compile ~cache ~config ~name:"<fuzz>" src in
        let eval_text (o : C.outcome) = Json.to_string ~minify:true o.C.eval in
        let cold = compile src in
        (* identical text is answered by the source-digest memo; text
           that differs but lowers the same goes through the front end
           to the same key *)
        let identical = compile src in
        let commented = compile ("// cache point\n" ^ src) in
        List.concat_map
          (fun (what, (warm : C.outcome)) ->
            let diverged kind msg =
              [ d kind (Printf.sprintf "warm compile of %s: %s" what msg) ]
            in
            List.concat
              [
                (if warm.C.hit && String.equal warm.C.key cold.C.key then []
                 else diverged "cache-miss" "missed the cold compile's entry");
                (if String.equal cold.C.report_text warm.C.report_text then []
                 else diverged "cache-replay" "report text differs from cold");
                (if String.equal (eval_text cold) (eval_text warm) then []
                 else diverged "cache-replay" "eval payload differs from cold");
              ])
          [
            ("identical source", identical);
            ("source with a comment prepended", commented);
          ])
  with e -> [ d "error" (Printexc.to_string e) ]

(* telemetry-guided recompile: semantics must survive guidance *)
let feedback_point ~max_steps ~config ~reference:ref_oc ~spt src =
  let point = string_of_point P_feedback in
  try
    let r = run_on_runtime ~max_steps ~jobs:2 spt in
    let store = Spt_profile.Profile_store.empty () in
    Spt_feedback.Telemetry.record store spt r;
    let guided = Pipeline.compile_spt ~profile:store config src in
    match run_on_runtime ~max_steps ~jobs:2 guided with
    | exception Interp.Runtime_error m ->
      [ { d_point = point; d_kind = "error"; d_detail = m } ]
    | gr -> diff_outcomes ~point ~reference:ref_oc (outcome_of_runtime gr)
  with e ->
    [ { d_point = point; d_kind = "error"; d_detail = Printexc.to_string e } ]

(* fault-armed recompile: *expected* to diverge when the fault fires *)
let inject_point ~max_steps ~config ~reference:ref_oc ~fault src =
  let point = string_of_point (P_inject fault) in
  let d kind detail = { d_point = point; d_kind = kind; d_detail = detail } in
  if not (List.mem fault known_faults) then
    ([ d "error" (Printf.sprintf "unknown fault %S" fault) ], false)
  else begin
    Tloop.fault_fired := false;
    Tloop.fault_drop_moved := true;
    let compiled =
      Fun.protect
        ~finally:(fun () -> Tloop.fault_drop_moved := false)
        (fun () ->
          try Ok (Pipeline.compile_spt config src)
          with e -> Error (Printexc.to_string e))
    in
    let fired = !Tloop.fault_fired in
    match compiled with
    | Error m -> ([ d "error" ("faulty compile raised: " ^ m) ], fired)
    | Ok _ when not fired -> ([], false)  (* fault had nothing to bite *)
    | Ok spt -> (
      match run_on_runtime ~max_steps ~jobs:2 spt with
      | exception Interp.Runtime_error m -> ([ d "error" m ], true)
      | r -> (diff_outcomes ~point ~reference:ref_oc (outcome_of_runtime r), true))
  end

(* ------------------------------------------------------------------ *)

let check ?(config = Config.best) ?(max_steps = default_max_steps) ~matrix src
    =
  match reference ~max_steps src with
  | exception e ->
    {
      v_status = `Skipped (Printexc.to_string e);
      v_divergences = [];
      v_spt_loops = 0;
      v_misspecs = 0;
      v_fault_fired = false;
    }
  | ref_oc ->
    (* One base compilation shared by every clean point — skipped
       entirely when no matrix point needs it (the shrinker re-checks
       only the points that diverged, often just [inject] or [cache],
       hundreds of times; the base compile would double its cost). *)
    let needs_base =
      List.exists
        (function
          | P_par _ | P_engine _ | P_depth _ | P_feedback -> true
          | P_cache | P_inject _ -> false)
        matrix
    in
    let base =
      if not needs_base then Ok None
      else
        try Ok (Some (Pipeline.compile_spt config src))
        with e -> Error (Printexc.to_string e)
    in
    (match base with
    | Error m ->
      {
        v_status = `Divergent;
        v_divergences =
          [ { d_point = "compile"; d_kind = "error"; d_detail = m } ];
        v_spt_loops = 0;
        v_misspecs = 0;
        v_fault_fired = false;
      }
    | Ok spt_opt ->
      let misspecs = ref 0 in
      let fault_fired = ref false in
      let spt () = Option.get spt_opt (* present: [needs_base] *) in
      let on_runtime ?depth ~jobs point =
        let ds, m =
          runtime_point ?depth ~max_steps ~reference:ref_oc ~spt:(spt ()) ~jobs
            point
        in
        misspecs := !misspecs + m;
        ds
      in
      let divs =
        (match spt_opt with
        | Some s -> invariant_divergences ~point:"compile" config s
        | None -> [])
        @ List.concat_map
            (fun point ->
              match point with
              | P_par jobs -> on_runtime ~jobs point
              | P_engine kind ->
                engine_point ~max_steps ~reference:ref_oc ~spt:(spt ()) kind
              | P_depth k -> on_runtime ~depth:k ~jobs:2 point
              | P_cache -> cache_point ~config src
              | P_feedback ->
                feedback_point ~max_steps ~config ~reference:ref_oc
                  ~spt:(spt ()) src
              | P_inject fault ->
                let ds, fired =
                  inject_point ~max_steps ~config ~reference:ref_oc ~fault src
                in
                if fired then fault_fired := true;
                ds)
            matrix
      in
      {
        v_status = (if divs = [] then `Ok else `Divergent);
        v_divergences = divs;
        v_spt_loops =
          (match spt_opt with
          | Some s -> List.length s.Pipeline.spt_loops
          | None -> 0);
        v_misspecs = !misspecs;
        v_fault_fired = !fault_fired;
      })
