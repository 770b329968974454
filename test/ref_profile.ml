(** Reference model of the three profilers: the tree-interpreter hook
    handlers they were built as before they moved onto the engine's
    probe events.  Test code only — {!Test_probes} checks that the
    engine-probed profilers export exactly what this model exports. *)

open Spt_ir
module Interp = Spt_interp.Interp
module Edge_profile = Spt_profile.Edge_profile
module Dep_profile = Spt_profile.Dep_profile
module Value_profile = Spt_profile.Value_profile

let combine_hooks hs =
  {
    Interp.on_instr =
      (fun f b i e -> List.iter (fun h -> h.Interp.on_instr f b i e) hs);
    on_block = (fun f b -> List.iter (fun h -> h.Interp.on_block f b) hs);
    on_edge =
      (fun f ~src ~dst -> List.iter (fun h -> h.Interp.on_edge f ~src ~dst) hs);
    on_branch =
      (fun f b ~taken -> List.iter (fun h -> h.Interp.on_branch f b ~taken) hs);
    on_enter = (fun f -> List.iter (fun h -> h.Interp.on_enter f) hs);
    on_exit = (fun f -> List.iter (fun h -> h.Interp.on_exit f) hs);
  }

let bump tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let bindings tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

module Edge = struct
  type t = {
    blocks : (string * int, int) Hashtbl.t;
    edges : (string * int * int, int) Hashtbl.t;
    entries : (string, int) Hashtbl.t;
  }

  let create () =
    {
      blocks = Hashtbl.create 256;
      edges = Hashtbl.create 256;
      entries = Hashtbl.create 32;
    }

  let hooks t =
    {
      Interp.null_hooks with
      Interp.on_block = (fun f bid -> bump t.blocks (f.Ir.fname, bid));
      on_edge = (fun f ~src ~dst -> bump t.edges (f.Ir.fname, src, dst));
      on_enter = (fun f -> bump t.entries f.Ir.fname);
    }

  let export t =
    {
      Edge_profile.d_blocks = bindings t.blocks;
      d_edges = bindings t.edges;
      d_entries = bindings t.entries;
    }
end

module Dep = struct
  type loop_key = string * int

  type loop_frame = {
    key : loop_key;
    instance : int;
    mutable iteration : int;
    body : Loops.Iset.t;
  }

  type call_frame = {
    mutable pending_call : int;
    mutable loop_frames : loop_frame list;
  }

  type write_record = {
    wr_key : loop_key;
    wr_instance : int;
    wr_iteration : int;
    wr_owner : int;
  }

  type t = {
    loops_of : (string, (int, Loops.Iset.t) Hashtbl.t) Hashtbl.t;
    shadow : (int, write_record list) Hashtbl.t;
    mutable stack : call_frame list;
    instance_gen : (loop_key, int) Hashtbl.t;
    dep_counts : (loop_key * int * int * Dep_profile.dep_kind, int) Hashtbl.t;
    w_execs : (loop_key * int, int) Hashtbl.t;
  }

  let create (program : Ir.program) =
    let loops_of = Hashtbl.create 16 in
    List.iter
      (fun (name, f) ->
        let tbl = Hashtbl.create 8 in
        List.iter
          (fun (l : Loops.loop) -> Hashtbl.replace tbl l.Loops.header l.Loops.body)
          (Loops.find f);
        Hashtbl.replace loops_of name tbl)
      program.Ir.funcs;
    {
      loops_of;
      shadow = Hashtbl.create 4096;
      stack = [];
      instance_gen = Hashtbl.create 64;
      dep_counts = Hashtbl.create 1024;
      w_execs = Hashtbl.create 256;
    }

  let fresh_instance t key =
    let n = 1 + Option.value ~default:0 (Hashtbl.find_opt t.instance_gen key) in
    Hashtbl.replace t.instance_gen key n;
    n

  let on_block t (f : Ir.func) bid =
    match t.stack with
    | [] -> ()
    | frame :: _ -> (
      frame.loop_frames <-
        List.filter (fun lf -> Loops.Iset.mem bid lf.body) frame.loop_frames;
      match Hashtbl.find_opt t.loops_of f.Ir.fname with
      | None -> ()
      | Some tbl -> (
        match Hashtbl.find_opt tbl bid with
        | None -> ()
        | Some body -> (
          let key = (f.Ir.fname, bid) in
          match frame.loop_frames with
          | lf :: _ when lf.key = key -> lf.iteration <- lf.iteration + 1
          | _ ->
            frame.loop_frames <-
              { key; instance = fresh_instance t key; iteration = 0; body }
              :: frame.loop_frames)))

  let owner_chain t (i : Ir.instr) =
    match t.stack with
    | [] -> []
    | top :: deeper ->
      List.map (fun lf -> (lf, i.Ir.iid)) top.loop_frames
      @ List.concat_map
          (fun frame ->
            List.map (fun lf -> (lf, frame.pending_call)) frame.loop_frames)
          deeper

  let on_instr t _f _bid (i : Ir.instr) (eff : Interp.effects) =
    (match i.Ir.kind with
    | Ir.Call _ -> (
      match t.stack with [] -> () | frame :: _ -> frame.pending_call <- i.Ir.iid)
    | _ -> ());
    if eff.Interp.loads <> [] || eff.Interp.stores <> [] then begin
      let chain = owner_chain t i in
      List.iter
        (fun (addr, _) ->
          match Hashtbl.find_opt t.shadow addr with
          | None -> ()
          | Some records ->
            List.iter
              (fun (lf, owner) ->
                match
                  List.find_opt
                    (fun wr -> wr.wr_key = lf.key && wr.wr_instance = lf.instance)
                    records
                with
                | None -> ()
                | Some wr ->
                  let kind =
                    if wr.wr_iteration = lf.iteration then Dep_profile.Intra
                    else if lf.iteration - wr.wr_iteration = 1 then
                      Dep_profile.Cross1
                    else Dep_profile.Cross_far
                  in
                  bump t.dep_counts (lf.key, wr.wr_owner, owner, kind))
              chain)
        eff.Interp.loads;
      List.iter
        (fun (addr, _) ->
          let records =
            List.map
              (fun (lf, owner) ->
                bump t.w_execs (lf.key, owner);
                {
                  wr_key = lf.key;
                  wr_instance = lf.instance;
                  wr_iteration = lf.iteration;
                  wr_owner = owner;
                })
              chain
          in
          Hashtbl.replace t.shadow addr records)
        eff.Interp.stores
    end

  let hooks t =
    {
      Interp.null_hooks with
      Interp.on_enter =
        (fun _ -> t.stack <- { pending_call = -1; loop_frames = [] } :: t.stack);
      on_exit =
        (fun _ -> match t.stack with [] -> () | _ :: rest -> t.stack <- rest);
      on_block = on_block t;
      on_instr = on_instr t;
    }

  let export t =
    { Dep_profile.d_deps = bindings t.dep_counts; d_writes = bindings t.w_execs }

  (* the loops observed, for the [observed] query *)
  let observed t = List.map fst (bindings t.instance_gen)
end

module Value = struct
  type series = {
    mutable last : int64 option;
    mutable instance_mark : int;
    strides : (int64, int) Hashtbl.t;
    mutable transitions : int;
  }

  type t = {
    targets : (string * int, series) Hashtbl.t;
    current_marks : (string, int) Hashtbl.t;
  }

  let create (targets : Value_profile.target list) =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun { Value_profile.tfunc; tiid } ->
        Hashtbl.replace tbl (tfunc, tiid)
          {
            last = None;
            instance_mark = -1;
            strides = Hashtbl.create 8;
            transitions = 0;
          })
      targets;
    { targets = tbl; current_marks = Hashtbl.create 16 }

  let hooks t =
    {
      Interp.null_hooks with
      Interp.on_enter = (fun f -> bump t.current_marks f.Ir.fname);
      on_instr =
        (fun f _bid i eff ->
          match Hashtbl.find_opt t.targets (f.Ir.fname, i.Ir.iid) with
          | None -> ()
          | Some s -> (
            match eff.Interp.defs with
            | (_, Eval.Vi v) :: _ ->
              let mark =
                Option.value ~default:0
                  (Hashtbl.find_opt t.current_marks f.Ir.fname)
              in
              (match s.last with
              | Some prev when s.instance_mark = mark ->
                bump s.strides (Int64.sub v prev);
                s.transitions <- s.transitions + 1
              | _ -> ());
              s.last <- Some v;
              s.instance_mark <- mark
            | _ -> ()));
    }

  let export t =
    Hashtbl.fold
      (fun key s acc ->
        match List.filter (fun (_, n) -> n > 0) (bindings s.strides) with
        | [] -> acc
        | strides -> (key, strides) :: acc)
      t.targets []
    |> List.sort compare
    |> fun d_strides -> { Value_profile.d_strides }

  (* the stride [Value_profile.best_prediction] picks: the first
     maximum in the table's iteration order *)
  let best t key =
    match Hashtbl.find_opt t.targets key with
    | None -> None
    | Some s ->
      if s.transitions = 0 then None
      else
        Some
          (Hashtbl.fold
             (fun stride count (bs, bc) ->
               if count > bc then (stride, count) else (bs, bc))
             s.strides (0L, 0))
end
