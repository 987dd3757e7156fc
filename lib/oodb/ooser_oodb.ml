(* Umbrella module for the object database layer. *)

module Runtime = Runtime
module Database = Database
module Call_log = Call_log
module Engine = Engine
module Encyclopedia = Encyclopedia
module Adt_objects = Adt_objects
