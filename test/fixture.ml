(** Where the test fixtures live.  [dune runtest] runs the suite from
    [_build/default/test], [dune exec test/test_main.exe] from the
    workspace root; every path here resolves from either.  Fixtures
    are read when a test runs, never when a test module loads, so a
    missing one fails that test rather than the whole binary. *)

(* the workspace root as seen from the working directory *)
let root () = if Sys.file_exists "../examples/src" then ".." else "."

(** [path rel] is [rel], a workspace-relative path, from the cwd. *)
let path rel = Filename.concat (root ()) rel

let read rel = In_channel.with_open_bin (path rel) In_channel.input_all

(** The [sptc] binary, a declared test dependency (see [test/dune]):
    next to the test directory in the build tree, under [_build] from
    the workspace root. *)
let sptc () =
  let built = path "bin/sptc.exe" in
  if Sys.file_exists built then built else "_build/default/bin/sptc.exe"

(** The [.c] files of a workspace-relative directory, sorted, as
    (path, contents). *)
let sources dir =
  let d = path dir in
  Sys.readdir d |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".c")
  |> List.sort compare
  |> List.map (fun f ->
         let p = Filename.concat d f in
         (p, In_channel.with_open_bin p In_channel.input_all))

(** Run [f] on a fresh temporary directory, removed afterwards. *)
let with_tmpdir f =
  let dir = Filename.temp_file "spt_test" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; dir ])))
    (fun () -> f dir)
