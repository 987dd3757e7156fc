(* Umbrella module for the durability / recovery subsystem. *)

module Record_log = Record_log
module Crash = Crash
module Oplog = Oplog
module Snapshot = Snapshot
module Recovery = Recovery
module Decision_log = Decision_log
