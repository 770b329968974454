(** Compile pins: the [Config.best] SPT compile of every suite
    workload, example and corpus program, hashed over the transformed
    program's fingerprint and each loop record's decision, cost,
    pre-fork size, depth and SVP flag.  A refactor that moves any of
    them fails here; a change meant to move them updates the table and
    says why. *)

open Spt_driver

let pin_hash src =
  match Pipeline.compile_spt Config.best src with
  | exception e ->
    Digest.to_hex (Digest.string ("error:" ^ Printexc.to_string e))
  | c ->
    let b = Buffer.create 256 in
    Buffer.add_string b (Spt_service.Fingerprint.program c.Pipeline.program);
    List.iter
      (fun (lr : Pipeline.loop_record) ->
        Printf.bprintf b "\n%s/%d %s cost=%s prefork=%s depth=%d svp=%b"
          lr.Pipeline.lr_func lr.Pipeline.lr_header
          (match lr.Pipeline.lr_decision with
          | Pipeline.Selected -> "selected"
          | Pipeline.Rejected r -> Spt_transform.Select.string_of_reason r)
          (match lr.Pipeline.lr_cost with
          | Some c -> Printf.sprintf "%h" c
          | None -> "-")
          (match lr.Pipeline.lr_prefork_size with
          | Some n -> string_of_int n
          | None -> "-")
          lr.Pipeline.lr_depth lr.Pipeline.lr_svp)
      c.Pipeline.records;
    Digest.to_hex (Digest.string (Buffer.contents b))

let pins =
  [
    ("bzip2", "3529890f3337b75476f17acb04788634");
    ("crafty", "c5442d09d9993c43c954ee99b3d1dabb");
    ("gap", "7184a53f108560c40d9635fab97c2abf");
    ("gcc", "a426f8c6edc362676aceb93ed5c61fc1");
    ("gzip", "0daa717cf8171ae998caca9891e4be77");
    ("mcf", "8cb1e7c32d1b6fd39820c6c76308f174");
    ("parser", "b1e3562d060d6f5ed34086a8a7e4e231");
    ("twolf", "b1e345207424f09b9acec5a1431e0786");
    ("vortex", "9e34c64719c1437a2e40b3d722a8285d");
    ("vpr", "110a6f280086f9ac2cf3c97ffaec1cc9");
    ("examples/src/feedback_loop.c", "c3ff324d9e5b725a8c28ef6f5897f292");
    ("examples/src/histogram.c", "c596c8492a0d4441579116d18a625735");
    ("examples/src/scan.c", "d57a7cbd327326ae0245e84faa6c16b5");
    ("examples/src/smoothing.c", "56c9f7973aff9f5311521b3fba73fe9d");
    ("test/corpus/int_s42_c0.c", "d3d383ad92ec2f120a2d0653a92af464");
    ("test/corpus/int_s42_c1.c", "57f31e9613cc2b450ff1dbcb6b26b690");
    ("test/corpus/int_s42_c2.c", "a41e2d0bb5efb41a3eae9ce0d2b3ca71");
    ("test/corpus/int_s42_c3.c", "3f874c6d5d4c5f0b197d6a383f02e2e9");
    ("test/corpus/reg_dowhile_phi.c", "51bf9a26630207d18ca4b022d4dfcdde");
    ("test/corpus/reg_header_branch.c", "e72cc316defb2c98b7c9f663aa3f354d");
    ("test/corpus/reg_shared_latch_phi.c", "f5ee9914c4497932240e53042003f612");
  ]

(* cwd is _build/default/test under [dune runtest], the workspace root
   under [dune exec test/test_main.exe] *)
let root = if Sys.file_exists "../examples/src" then ".." else "."

let source name =
  match Spt_workloads.Suite.find name with
  | w -> w.Spt_workloads.Suite.source
  | exception Invalid_argument _ ->
    In_channel.with_open_bin (Filename.concat root name) In_channel.input_all

let test_pins () =
  List.iter
    (fun (name, expected) ->
      Alcotest.(check string) name expected (pin_hash (source name)))
    pins

let test_every_program_pinned () =
  (* a new example or corpus program needs a pin *)
  List.iter
    (fun dir ->
      Sys.readdir (Filename.concat root dir)
      |> Array.iter (fun f ->
             if Filename.check_suffix f ".c" then
               Alcotest.(check bool) (f ^ " pinned") true
                 (List.mem_assoc (dir ^ "/" ^ f) pins)))
    [ "examples/src"; "test/corpus" ]

let suite =
  [
    Alcotest.test_case "best compiles match their pins" `Slow test_pins;
    Alcotest.test_case "every program is pinned" `Quick test_every_program_pinned;
  ]
