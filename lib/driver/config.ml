(** The three compiler configurations evaluated in §8.

    - [basic]: cost model, code reordering and DO-loop unrolling, with
      control-flow edge profiling only — memory dependence
      probabilities fall back to the conservative type-based static
      value (1.0 on every may-alias pair).
    - [best]: basic plus data-dependence profiling feedback and
      software value prediction.
    - [anticipated]: best plus the enabling techniques the paper
      applied manually — while-loop unrolling chief among them — with
      slightly relaxed selection thresholds standing in for
      privatization and global-variable export (both of which our
      dependence profiler already subsumes: a profiled-private array
      simply shows no cross-iteration dependence). *)

open Spt_transform

type t = {
  name : string;
  alias_model : [ `Exact | `Type_based ];
  use_dep_profile : bool;
  use_svp : bool;
  inline : bool;
      (** inline small callees before analysis — an extension beyond the
          paper (whose cost model keeps calls opaque, the source of its
          Fig. 19 outliers) *)
  unroll : Unroll.policy;
  thresholds : Select.thresholds;
  static_mem_prob : float;
  include_control : bool;
  sim : Spt_tlsim.Tls_machine.config;
  depth : int option;
      (** forced speculation depth (chunks in flight per loop).  [None]
          lets the cost model pick a depth per region
          ({!Spt_cost.Cost_model.pick_depth}); [Some k] forces [k]
          everywhere and makes final selection price the kill cascade
          ([cost * cascade_factor k]) so marginal loops are not
          speculated k-deep *)
}

let basic =
  {
    name = "basic";
    (* ORC's type-based memory disambiguation on pointer-rich C *)
    alias_model = `Type_based;
    use_dep_profile = false;
    use_svp = false;
    inline = false;
    unroll = Unroll.default_policy;
    thresholds = Select.default_thresholds;
    static_mem_prob = 1.0;
    include_control = true;
    sim = Spt_tlsim.Tls_machine.default_config;
    depth = None;
  }

let best =
  {
    basic with
    name = "best";
    alias_model = `Exact;
    use_dep_profile = true;
    use_svp = true;
  }

let anticipated =
  {
    best with
    name = "anticipated";
    unroll = { Unroll.default_policy with Unroll.unroll_while = true };
    thresholds =
      {
        Select.default_thresholds with
        Select.cost_fraction = 0.15;
        min_body_size = 40;
      };
  }

(** [best] plus small-function inlining: calls stop being opaque to the
    cost model, trading the paper's Fig. 19 call outliers for larger
    loop bodies. *)
let best_inline = { best with name = "best-inline"; inline = true }

let all = [ basic; best; anticipated; best_inline ]

let by_name name =
  match List.find_opt (fun c -> c.name = name) all with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Config.by_name: unknown config %s" name)

(* [t] is plain data (no closures), so the marshalled bytes are a
   total, stable rendering of every field — any knob change, including
   inside the nested simulator/cache configs, changes the digest *)
let cache_key ?profile (c : t) =
  let base =
    Printf.sprintf "%s:%s" c.name
      (Digest.to_hex (Digest.string (Marshal.to_string c [])))
  in
  match profile with
  | Some digest -> base ^ ";profile=" ^ digest
  | None -> base
