/**
 * @file
 * Small blocking loopback-socket helpers shared by the cluster's
 * ReplicaManager (health probes, graceful shutdown), Router (replica
 * connections) and ta_loadgen — one implementation, so fixes like EINTR
 * handling, close-on-exec or TCP_NODELAY never diverge between them.
 * TCP_NODELAY: a line per write() must not wait for a delayed ACK.
 */

#ifndef TA_CLUSTER_NET_H
#define TA_CLUSTER_NET_H

#include <cstdint>
#include <string>

namespace ta {

/**
 * Blocking connect to 127.0.0.1:`port`, bounded by `timeout_ms`;
 * returns the fd, or -1 on failure. The fd is marked close-on-exec so
 * spawned replicas never inherit live connections.
 *
 * With `keep_io_timeouts` (the default) the timeout stays installed
 * as SO_RCVTIMEO/SO_SNDTIMEO — right for short-lived probe/shutdown
 * exchanges. Long-lived connections (the Router's upstreams) must
 * pass false: a receive timeout on a connection that is legitimately
 * idle, or mid-computation, reads as EOF and would be treated as a
 * replica death.
 */
int connectLoopback(uint16_t port, int timeout_ms,
                    bool keep_io_timeouts = true);

/** Write all of `data`; false on any short/failed write (EINTR
 *  retried). */
bool writeAll(int fd, const std::string &data);

/**
 * Read one '\n'-terminated line (without the '\n') within
 * `timeout_ms`; false on EOF or deadline.
 */
bool readLineTimeout(int fd, int timeout_ms, std::string &line);

} // namespace ta

#endif // TA_CLUSTER_NET_H
