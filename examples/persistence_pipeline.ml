(* The storage pipeline end to end: generate a corpus, persist both index
   forms (raw postings for fast reload, the column store for lazy
   column-at-a-time query I/O), reload each, and verify the three engines
   agree on a query.

     dune exec examples/persistence_pipeline.exe                        *)

let time name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Fmt.pr "%-34s %6.1f ms@." name ((Unix.gettimeofday () -. t0) *. 1000.);
  r

let () =
  let dir = Filename.get_temp_dir_name () in
  let xml_path = Filename.concat dir "xk_demo_corpus.xml" in
  let idx_path = Filename.concat dir "xk_demo_corpus.idx" in
  let col_path = Filename.concat dir "xk_demo_corpus.col" in

  (* 1. Generate and serialize a corpus. *)
  let corpus =
    time "generate DBLP-like corpus" (fun () ->
        Xk_datagen.Dblp_gen.generate (Xk_datagen.Dblp_gen.scaled 0.3))
  in
  time "write XML" (fun () -> Xk_xml.Xml_print.to_file xml_path corpus.doc);

  (* 2. Parse + label + tokenize once; persist both index forms. *)
  let doc = time "parse XML" (fun () -> Xk_xml.Xml_parser.parse_file_exn xml_path) in
  let label = time "label (Dewey + JDewey)" (fun () -> Xk_encoding.Labeling.label doc) in
  let idx = time "build index (tokenize)" (fun () -> Xk_index.Index.build label) in
  time "save raw postings" (fun () -> Xk_index.Index_io.save idx idx_path);
  time "save column store" (fun () -> Xk_index.Jstore.write idx col_path);
  Fmt.pr "  postings file: %.2f MB, column store: %.2f MB@."
    (float_of_int (Xk_index.Index_io.file_size idx_path) /. 1048576.)
    (float_of_int (Xk_index.Jstore.file_size col_path) /. 1048576.);

  (* 3. Reload through both paths. *)
  let reloaded =
    time "reload raw postings" (fun () ->
        match
          Xk_index.Index_io.load_result (Xk_encoding.Labeling.label doc) idx_path
        with
        | Ok idx -> idx
        | Error e -> failwith (Xk_index.Index_io.load_error_message e))
  in
  let store = time "open column store" (fun () -> Xk_index.Jstore.open_file col_path) in

  (* 4. Same query, three engines. *)
  let q = List.nth corpus.correlated_queries 2 in
  Fmt.pr "@.query {%s}@." (String.concat " " q);
  let from_memory = Xk_core.Engine.of_index idx in
  let from_file = Xk_core.Engine.of_index reloaded in
  let h1 = Xk_core.Engine.query from_memory q in
  let h2 = Xk_core.Engine.query from_file q in
  Fmt.pr "  in-memory engine:   %d results@." (List.length h1);
  Fmt.pr "  reloaded engine:    %d results (%s)@." (List.length h2)
    (if List.map (fun (h : Xk_baselines.Hit.t) -> h.node) h1
        = List.map (fun (h : Xk_baselines.Hit.t) -> h.node) h2
     then "identical"
     else "MISMATCH!");

  (* The column store runs the join over lazily decoded columns. *)
  let ids = List.map (fun w -> Option.get (Xk_index.Jstore.term_id store w)) q in
  Xk_index.Jstore.reset_stats store;
  let lists = Array.of_list (List.map (Xk_index.Jstore.jlist store) ids) in
  let h3 =
    Xk_core.Join_query.run lists (Xk_index.Index.damping idx)
      Xk_core.Join_query.Elca
  in
  let s = Xk_index.Jstore.stats store in
  let stored =
    List.fold_left (fun a id -> a + Xk_index.Jstore.term_bytes store id) 0 ids
  in
  Fmt.pr "  column-store engine: %d results; decoded %d of %d bytes (%d columns)@."
    (List.length h3) s.bytes_decoded stored s.columns_decoded;

  List.iter Sys.remove [ xml_path; idx_path; col_path ]
