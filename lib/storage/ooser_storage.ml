(* Umbrella module for the storage substrate: the byte codec under B+
   tree nodes, every record format and the wire, and the slotted pages,
   volume and buffer pool under the B+ tree, the encyclopedia and the
   document workloads. *)

module Codec = Codec
module Page = Page
module Disk = Disk
module Buffer_pool = Buffer_pool
