"""``repro serve`` — host OASIS services over TCP.

One invocation = one served process.  The world factory is named as
``package.module:factory`` (see :mod:`repro.netd.worlds` for the
contract and the built-in EHR worlds); peers give the addresses used for
callback validation, and ``--subscribe`` opens persistent event-channel
subscriptions so revocation cascades cross process boundaries.
``--shard I/N`` makes the process one worker of a sharded universe
(:mod:`repro.shard`; normally started by its ``ShardRouter``).

Example — the Fig. 3 hospital records node::

    python -m repro serve --node records --port 7102 \\
        --world repro.netd.worlds:ehr_records \\
        --peer front=127.0.0.1:7101 --subscribe front \\
        --state-dir /var/lib/oasis/records

(Normally driven by :class:`~repro.netd.deploy.Supervisor` /
``examples/serve_ehr.py`` rather than by hand.)
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .deploy import NodeSpec, serve_node

__all__ = ["add_serve_parser", "cmd_serve", "parse_peer", "parse_shard"]


def parse_peer(value: str) -> tuple:
    """``name=host:port`` → ``(name, host, port)``."""
    name, sep, address = value.partition("=")
    host, sep2, port = address.rpartition(":")
    if not sep or not sep2 or not name or not host:
        raise argparse.ArgumentTypeError(
            f"peer {value!r} must look like name=host:port")
    try:
        return name, host, int(port)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"peer {value!r} has a non-numeric port") from None


def parse_shard(value: str) -> tuple:
    """``I/N`` → ``(I, N)``: this node serves partition I of N."""
    index, _, count = value.partition("/")
    if not (index.isdigit() and count.isdigit()
            and int(index) < int(count)):
        raise argparse.ArgumentTypeError(
            f"shard {value!r} must look like I/N with 0 <= I < N")
    return int(index), int(count)


def add_serve_parser(sub: argparse._SubParsersAction) -> None:
    serve = sub.add_parser(
        "serve", help="host OASIS services over TCP (repro.netd)")
    serve.add_argument("--node", required=True,
                       help="this node's name (event-push origin, span "
                            "id prefix)")
    serve.add_argument("--world", required=True,
                       help="world factory as package.module:factory")
    serve.add_argument("--world-arg", action="append", default=[],
                       metavar="ARG", help="extra factory argument; "
                                           "repeatable")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 = OS-assigned; the bound port "
                            "is printed on the OASIS-READY line)")
    serve.add_argument("--peer", action="append", default=[],
                       type=parse_peer, metavar="NAME=HOST:PORT",
                       help="peer address for callback validation; "
                            "repeatable")
    serve.add_argument("--subscribe", action="append", default=[],
                       metavar="NAME",
                       help="subscribe to this peer's event stream; "
                            "repeatable")
    serve.add_argument("--state-dir", default=None,
                       help="directory holding one sqlite file per "
                            "hosted service: the node resumes from it "
                            "after a kill, whatever OASIS_STORE_BACKEND "
                            "says")
    serve.add_argument("--observed", action="store_true",
                       help="enable the observability pipeline with "
                            "node-prefixed span ids")
    serve.add_argument("--require-handshake", action="store_true",
                       help="refuse state-touching ops until the "
                            "challenge-response handshake completes")
    serve.add_argument("--shard", type=parse_shard, default=None,
                       metavar="I/N",
                       help="serve partition I of an N-way sharded "
                            "universe (repro.shard)")
    serve.set_defaults(func=cmd_serve)


def cmd_serve(args: argparse.Namespace) -> int:
    peers = {name: (host, port) for name, host, port in args.peer}
    for peer in args.subscribe:
        if peer not in peers:
            print(f"error: --subscribe {peer} has no matching --peer",
                  file=sys.stderr)
            return 2
    spec = NodeSpec(
        name=args.node, port=args.port, world=args.world,
        host=args.host, args=tuple(args.world_arg), peers=peers,
        subscribe=tuple(args.subscribe), state_dir=args.state_dir,
        observed=args.observed, require_handshake=args.require_handshake,
        shard=args.shard)
    try:
        serve_node(spec)
    except KeyboardInterrupt:
        pass
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.netd.cli")
    sub = parser.add_subparsers(dest="command", required=True)
    add_serve_parser(sub)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
