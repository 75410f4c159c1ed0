(* Standalone stress driver: no public interface (explicit so that
   dune's builtin @check alias finds its .cmi; see test_bench_json.mli). *)
