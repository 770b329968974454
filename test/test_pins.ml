(** Compile pins: the [Config.best] SPT compile of every suite
    workload, example and corpus program, hashed over the transformed
    program's fingerprint and each loop record's decision, cost,
    pre-fork size, depth and SVP flag.  The other [Config.all] presets
    are pinned over the examples and corpus, [Config.best] guided by a
    deterministic profile store over the examples and corpus, and
    [Config.best] over the first generated programs of the [serve_mix]
    benchmark's cold pool.  The serve replies to the examples and
    corpus are pinned byte for byte, cold and warm.
    A refactor that moves any of them fails here; a change meant to
    move them updates the table and says why. *)

open Spt_driver

let hash_compile compile =
  match compile () with
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

let pin_hash ?(config = Config.best) src =
  hash_compile (fun () -> Pipeline.compile_spt config src)

module Store = Spt_profile.Profile_store

(* the observation a guided pin's store records on every loop the
   unguided compile selected: half the validations fail, each killing
   one task behind it, on registers and on every region the loop's
   candidates store to *)
let guide_obs (lr : Pipeline.loop_record) =
  let regions =
    List.sort_uniq compare
      (List.filter_map (fun (_, sid, _) -> sid) lr.Pipeline.lr_vcs)
  in
  {
    Store.o_iters = 1000;
    o_forks = 100;
    o_commits = 50;
    o_violations = 50;
    o_faults = 0;
    o_kills = 50;
    o_despecs = 0;
    o_serial_reexecs = 0;
    o_stale_other = 50;
    o_stale_regions = List.map (fun sid -> (sid, 50)) regions;
    o_svp = [];
  }

(* The deterministic store a guided pin compiles with: the program's
   own profiles plus [guide_obs] on every loop the unguided [Config.best]
   compile selected.  No runtime run is involved. *)
let guide_store src =
  let store = Store.empty () in
  (match Pipeline.profile_source src with
  | ep, dp, vp -> Store.absorb_profiles store ep dp vp
  | exception _ -> ());
  (match Pipeline.compile_spt Config.best src with
  | c ->
    List.iter
      (fun (lr : Pipeline.loop_record) ->
        if lr.Pipeline.lr_decision = Pipeline.Selected then
          Store.add_observation store ~func:lr.Pipeline.lr_func
            ~header:lr.Pipeline.lr_header (guide_obs lr))
      c.Pipeline.records
  | exception _ -> ());
  store

let guided_hash store src =
  hash_compile (fun () -> Pipeline.compile_spt ~profile:store Config.best src)

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

(* The other [Config.all] presets over the examples and corpus
   ([Config.best] is pinned above) *)
let preset_pins =
  [
    (("basic", "examples/src/feedback_loop.c"), "c8200ac974770b3adac77940721ab8e4");
    (("basic", "examples/src/histogram.c"), "af240cf1287d8983cc7708f8bab69943");
    (("basic", "examples/src/scan.c"), "2fe45fd7027777c9345d49fb605bbc7a");
    (("basic", "examples/src/smoothing.c"), "96ec7c469572461b0081094c0972bd14");
    (("basic", "test/corpus/int_s42_c0.c"), "2524c206df35880374a392dd00e0bdd8");
    (("basic", "test/corpus/int_s42_c1.c"), "ae41299e261161ea03fb7a3fc5a9a71b");
    (("basic", "test/corpus/int_s42_c2.c"), "2440897ea5541aa70e6183b651f6303c");
    (("basic", "test/corpus/int_s42_c3.c"), "aa98e8cf8ffbe2f0856e5a9fbab8c1c7");
    (("basic", "test/corpus/reg_dowhile_phi.c"), "7a4c5a71da2a786f08cb961002fc3d65");
    (("basic", "test/corpus/reg_header_branch.c"), "b6df2bc8afe8a1d15b9e600070298d68");
    (("basic", "test/corpus/reg_shared_latch_phi.c"), "f5ee9914c4497932240e53042003f612");
    (("anticipated", "examples/src/feedback_loop.c"), "c3ff324d9e5b725a8c28ef6f5897f292");
    (("anticipated", "examples/src/histogram.c"), "90603f5049f24e8593cea20718779801");
    (("anticipated", "examples/src/scan.c"), "2ed92bc7d341dfaa9bf89d1e01c73798");
    (("anticipated", "examples/src/smoothing.c"), "56c9f7973aff9f5311521b3fba73fe9d");
    (("anticipated", "test/corpus/int_s42_c0.c"), "d3d383ad92ec2f120a2d0653a92af464");
    (("anticipated", "test/corpus/int_s42_c1.c"), "2728791859e8c9af87ee4a62517ddec8");
    (("anticipated", "test/corpus/int_s42_c2.c"), "601c06d48801a2f167ca4425d4ca86ee");
    (("anticipated", "test/corpus/int_s42_c3.c"), "0387ce28c6dd81d61ee7c4eb7b687f91");
    (("anticipated", "test/corpus/reg_dowhile_phi.c"), "07f0256343e1121333f3322e0375f899");
    (("anticipated", "test/corpus/reg_header_branch.c"), "4bba245ddcf687b2b5e6e59b2f0d4f31");
    (("anticipated", "test/corpus/reg_shared_latch_phi.c"), "f5ee9914c4497932240e53042003f612");
    (("best-inline", "examples/src/feedback_loop.c"), "c3ff324d9e5b725a8c28ef6f5897f292");
    (("best-inline", "examples/src/histogram.c"), "c596c8492a0d4441579116d18a625735");
    (("best-inline", "examples/src/scan.c"), "d57a7cbd327326ae0245e84faa6c16b5");
    (("best-inline", "examples/src/smoothing.c"), "56c9f7973aff9f5311521b3fba73fe9d");
    (("best-inline", "test/corpus/int_s42_c0.c"), "d3d383ad92ec2f120a2d0653a92af464");
    (("best-inline", "test/corpus/int_s42_c1.c"), "df3052ca823394cc15affa08bc4f00b8");
    (("best-inline", "test/corpus/int_s42_c2.c"), "a41e2d0bb5efb41a3eae9ce0d2b3ca71");
    (("best-inline", "test/corpus/int_s42_c3.c"), "3f874c6d5d4c5f0b197d6a383f02e2e9");
    (("best-inline", "test/corpus/reg_dowhile_phi.c"), "51bf9a26630207d18ca4b022d4dfcdde");
    (("best-inline", "test/corpus/reg_header_branch.c"), "e72cc316defb2c98b7c9f663aa3f354d");
    (("best-inline", "test/corpus/reg_shared_latch_phi.c"), "f5ee9914c4497932240e53042003f612");
  ]

(* [Config.best] over the examples and corpus, guided by [guide_store] *)
let guided_pins =
  [
    ("examples/src/feedback_loop.c", "ee553506bb49d6ee6654c943a8b7d936");
    ("examples/src/histogram.c", "c596c8492a0d4441579116d18a625735");
    ("examples/src/scan.c", "14f27b4b081b7c880d4b0c975bab6efb");
    ("examples/src/smoothing.c", "56c9f7973aff9f5311521b3fba73fe9d");
    ("test/corpus/int_s42_c0.c", "0040b821c6765ccde3ce9fed209401c6");
    ("test/corpus/int_s42_c1.c", "bf03718a056e0fee20eb9579241c12e7");
    ("test/corpus/int_s42_c2.c", "f2234e575692ecac52ee7e171d01962f");
    ("test/corpus/int_s42_c3.c", "e2f43af76ee246bf5fe1306a6d0f8fa8");
    ("test/corpus/reg_dowhile_phi.c", "51bf9a26630207d18ca4b022d4dfcdde");
    ("test/corpus/reg_header_branch.c", "7b888425ee9e79f478443716cbb05df7");
    ("test/corpus/reg_shared_latch_phi.c", "f5ee9914c4497932240e53042003f612");
  ]

(* [Config.best] over the first programs of the serve_mix benchmark's
   cold pool: Spt_fuzz.Gen case seeds 0xC01D/0, 0xC01D/1, ... *)
let gen_pins =
  [|
    "af6e7b12f0b593c92b4bd28af5d1ee5c";
    "ac534d3e94fecec6081d3b1c20bc847b";
    "89bccf1c251f5aa02d016a14ce95adca";
    "1272e910dfae92c030113b1991ab78ab";
    "135a9494faea2d264bbca22ef7ef351d";
    "82573609b93cc2aa9e7b54aebbfaddd1";
    "a6a547fd1e7d07beb9655e96f8de6cd3";
    "97cc5e51284f9a273526ae223b9f1d48";
    "adf6cab481406d375a2f65ca28cb3c86";
    "7c1a893b9cf591d0ecb1a74e73d5569c";
    "95ede3e68045b8b941ae807abc94543e";
    "493f2ad7f43b625c8afc69bd307891df";
    "e7619ac6ba74854c1d376e0ab4274c7e";
    "0568d52b17f0fbfd81707a692b4e717b";
    "759475f11006d1c00ca88b70d2e99821";
    "be5620865120d01532f11effe014e2de";
    "f4991b5a6bbfb91c6ba1c2a792daee4b";
    "d4137cc5cf4f7e6fd884bab9e849fc26";
    "0af3ef35ed41b26f44793ab1a51efe13";
    "2dc71548e02861385b10c2814de29f01";
    "0158ca43afc6c2735e0f4a452b2ed7e3";
    "89cbd5d770e51712c3eaa12ce461d915";
    "5eda8b6bba812ece279a88a1dc1dcd9f";
    "cda98d03b8d3f2aba4d9ef363c309f53";
    "ee67a7f374b99b37a130f009bac65c4f";
    "3dfcce645d626b2745430837fa5e391e";
    "9fe19110f433702eb43f5b3a7facf22c";
    "da25682a9d687d71980e67ced3bd6516";
    "9bc5f8c0eb49c621c8d2bbd936703ef8";
    "b1a3fe885a143830c11c3e9f372c9880";
    "22b5366790ba676ce052b84f135c771f";
    "a6c50cd76a6d228d32d84702a53f49d1";
    "1c2f613f21a9ac14dc713b17fc33a45a";
    "6bc710c3783ca2921615385d5c7f4b2d";
    "d4b52be67249ecfe04002bf10fd020e8";
    "e06138ccff9eb34445895918beed9473";
    "4b82bab5d67fe8114e83b5ab520d565a";
    "92eb51d3374c352b31ae3746bbfb1991";
    "8d9a2498c8fa5effea74a9c88d1a1925";
    "a6fa7ba5d2f1c167a71316c19c7d6583";
  |]

let gen_source k =
  Spt_fuzz.Gen.(to_source (generate ~seed:(case_seed ~seed:0xC01D ~index:k) ()))

let source name =
  match Spt_workloads.Suite.find name with
  | w -> w.Spt_workloads.Suite.source
  | exception Invalid_argument _ -> Fixture.read name

(* Serve reply pins: the reply lines of a compile request for every
   example and corpus program through [Server.handle_line] on a fresh
   cache, as (cold, warm) digests, with the [elapsed_s] value (the only
   field that varies from run to run) normalized to 0 *)
let reply_pins =
  [
    ( "examples/src/feedback_loop.c",
      ("b654d112f6003290a3d87cb012b378c4", "328bca7f28f402c3e28f856100f3e6a4") );
    ( "examples/src/histogram.c",
      ("12977e72359c6f26315f32659279bb00", "8c01ee8f67c4776355120309802918f4") );
    ( "examples/src/scan.c",
      ("56e689f07b984ea241a5c2ed1ec5c60c", "8aa8f55953ad0e2be104f4d6232211f0") );
    ( "examples/src/smoothing.c",
      ("44c9b214663ea1da09851611a01d24b7", "71581a3c295fb51599b165acf955e17f") );
    ( "test/corpus/int_s42_c0.c",
      ("9e434311a7a3b8cf708e35d2b08474af", "a9aefb7980d159723f0f11e1630ac2b2") );
    ( "test/corpus/int_s42_c1.c",
      ("e200cf0bc0ecb3bdea4da343f6543248", "13ca4acc3c79e4dffcdb1559e6418da2") );
    ( "test/corpus/int_s42_c2.c",
      ("f687612721645c965fe80fb1beb24f6a", "ef566ea819518d4e0c637d9816641b0c") );
    ( "test/corpus/int_s42_c3.c",
      ("62370fd05a47a34b5d123cff1e48c084", "0941aa534b98bca3929098d0e82e876d") );
    ( "test/corpus/reg_dowhile_phi.c",
      ("61dcab493d296cc7a4b99d98e33f1347", "ead62b6387a2efb5d988ffebedd5b112") );
    ( "test/corpus/reg_header_branch.c",
      ("75dfe90c1a9161dc4edce5b978882685", "ba4941ae9ededcbfbc0308144c879fd4") );
    ( "test/corpus/reg_shared_latch_phi.c",
      ("de95c2db6894ce651a591a7228ae6ce8", "05f11d26a12bb358dbaaaf1ceae43961") );
  ]

module Server = Spt_service.Server
module Cache = Spt_service.Artifact_cache

(* [line] with the number after its first ["elapsed_s":] replaced by 0 *)
let normalize_elapsed line =
  let tag = "\"elapsed_s\":" in
  let n = String.length line and l = String.length tag in
  let rec find i =
    if i + l > n then None
    else if String.sub line i l = tag then Some (i + l)
    else find (i + 1)
  in
  match find 0 with
  | None -> line
  | Some start ->
    let stop = ref start in
    while !stop < n && String.contains "0123456789.eE+-" line.[!stop] do
      incr stop
    done;
    String.sub line 0 start ^ "0" ^ String.sub line !stop (n - !stop)

let reply_request id name =
  Spt_obs.Json.(
    to_string ~minify:true
      (Obj
         [
           ("id", Int id);
           ("op", Str "compile");
           ("name", Str (Filename.basename name));
           ("source", Str (source name));
         ]))

let reply_line t line =
  match Server.handle_line t line with
  | `Reply r -> normalize_elapsed r
  | `Shutdown _ -> Alcotest.fail "a compile request ended the serve loop"

let digest s = Digest.to_hex (Digest.string s)

let test_reply_pins () =
  Fixture.with_tmpdir (fun dir ->
      let t = Server.create ~cache:(Cache.create ~dir ()) () in
      let warm =
        List.mapi
          (fun id (name, (cold, warm)) ->
            let line = reply_request id name in
            Alcotest.(check string) ("cold " ^ name) cold
              (digest (reply_line t line));
            let reply = reply_line t line in
            Alcotest.(check string) ("warm " ^ name) warm (digest reply);
            (line, reply))
          reply_pins
      in
      (* a second server over the same directory reads each entry back
         from disk and replies the same warm bytes *)
      let t' = Server.create ~cache:(Cache.create ~dir ()) () in
      List.iter
        (fun (line, warm) ->
          Alcotest.(check string) "warm from disk" warm (reply_line t' line))
        warm)

let test_pins () =
  List.iter
    (fun (name, expected) ->
      Alcotest.(check string) name expected (pin_hash (source name)))
    pins

let test_preset_pins () =
  List.iter
    (fun ((preset, name), expected) ->
      Alcotest.(check string) (preset ^ " " ^ name) expected
        (pin_hash ~config:(Config.by_name preset) (source name)))
    preset_pins

let test_guided_pins () =
  List.iter
    (fun (name, expected) ->
      let src = source name in
      Alcotest.(check string) ("guided " ^ name) expected
        (guided_hash (guide_store src) src))
    guided_pins;
  (* the pins see the guidance *)
  Alcotest.(check bool) "some guided pin differs from its unguided pin" true
    (List.exists
       (fun (name, h) -> not (String.equal h (List.assoc name pins)))
       guided_pins)

let test_empty_profile_unguided () =
  (* an empty store guides nothing: the compile hashes to the unguided pin *)
  List.iter
    (fun (name, _) ->
      Alcotest.(check string) ("empty-store " ^ name) (List.assoc name pins)
        (guided_hash (Store.empty ()) (source name)))
    guided_pins

let test_gen_pins () =
  Array.iteri
    (fun k expected ->
      Alcotest.(check string) (Printf.sprintf "0xC01D/%d" k) expected
        (pin_hash (gen_source k)))
    gen_pins

let test_every_program_pinned () =
  (* a new example or corpus program needs a pin under every preset *)
  List.iter
    (fun dir ->
      Sys.readdir (Fixture.path dir)
      |> Array.iter (fun f ->
             if Filename.check_suffix f ".c" then begin
               let name = dir ^ "/" ^ f in
               Alcotest.(check bool) (f ^ " pinned") true
                 (List.mem_assoc name pins);
               Alcotest.(check bool) (f ^ " pinned guided") true
                 (List.mem_assoc name guided_pins);
               Alcotest.(check bool) (f ^ " reply pinned") true
                 (List.mem_assoc name reply_pins);
               List.iter
                 (fun (c : Config.t) ->
                   if c.Config.name <> Config.best.Config.name then
                     Alcotest.(check bool)
                       (f ^ " pinned under " ^ c.Config.name)
                       true
                       (List.mem_assoc (c.Config.name, name) preset_pins))
                 Config.all
             end))
    [ "examples/src"; "test/corpus" ]

let suite =
  [
    Alcotest.test_case "best compiles match their pins" `Slow test_pins;
    Alcotest.test_case "preset compiles match their pins" `Slow
      test_preset_pins;
    Alcotest.test_case "generated compiles match their pins" `Slow
      test_gen_pins;
    Alcotest.test_case "guided compiles match their pins" `Slow
      test_guided_pins;
    Alcotest.test_case "an empty profile compiles unguided" `Slow
      test_empty_profile_unguided;
    Alcotest.test_case "serve replies match their pins" `Slow test_reply_pins;
    Alcotest.test_case "every program is pinned" `Quick test_every_program_pinned;
  ]
